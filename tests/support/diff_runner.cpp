#include "support/diff_runner.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/panic.h"

namespace ziria {
namespace difftest {

CompilerOptions
DiffConfig::options() const
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    switch (optTier) {
    case 0:
        break;
    case 1:
        opt.fold = true;
        break;
    case 2:
        opt.fold = true;
        opt.autoMap = true;
        opt.fuse = true;
        break;
    default:
        opt = CompilerOptions::forLevel(OptLevel::All);
        break;
    }
    opt.vectorize = vectorize;
    opt.backend = native ? Backend::Native
                         : (fused ? Backend::Fused : Backend::Vm);
    return opt;
}

int
DiffConfig::distance(const DiffConfig& a, const DiffConfig& b)
{
    return (a.optTier != b.optTier) + (a.vectorize != b.vectorize) +
           (a.threaded != b.threaded) + (a.fused != b.fused) +
           (a.native != b.native);
}

std::vector<DiffConfig>
defaultMatrix()
{
    std::vector<DiffConfig> m;
    for (bool vec : {false, true})
        for (int tier = 0; tier <= 3; ++tier) {
            DiffConfig c;
            c.optTier = tier;
            c.vectorize = vec;
            c.name = "O" + std::to_string(tier) + (vec ? "+vec" : "");
            m.push_back(c);
        }
    DiffConfig mt0;
    mt0.name = "O0/mt";
    mt0.threaded = true;
    m.push_back(mt0);
    DiffConfig mt3;
    mt3.name = "O3+vec/mt";
    mt3.optTier = 3;
    mt3.vectorize = true;
    mt3.threaded = true;
    m.push_back(mt3);
    return m;
}

std::vector<DiffConfig>
fullMatrix()
{
    std::vector<DiffConfig> m;
    for (bool mt : {false, true})
        for (bool vec : {false, true})
            for (int tier = 0; tier <= 3; ++tier) {
                DiffConfig c;
                c.optTier = tier;
                c.vectorize = vec;
                c.threaded = mt;
                c.name = "O" + std::to_string(tier) +
                         (vec ? "+vec" : "") + (mt ? "/mt" : "");
                m.push_back(c);
            }
    return m;
}

std::vector<DiffConfig>
fusedMatrix()
{
    std::vector<DiffConfig> m;
    for (bool fz : {false, true})
        for (bool vec : {false, true})
            for (int tier = 0; tier <= 3; ++tier) {
                DiffConfig c;
                c.optTier = tier;
                c.vectorize = vec;
                c.fused = fz;
                c.name = "O" + std::to_string(tier) +
                         (vec ? "+vec" : "") + (fz ? "/fz" : "");
                m.push_back(c);
            }
    // Threaded fused cells: each |>>>| partition becomes its own fused
    // region below the threaded driver; the cells above lower the same
    // |>>>| as a plain >>> inside one region.
    DiffConfig mt0;
    mt0.name = "O0/mt/fz";
    mt0.threaded = true;
    mt0.fused = true;
    m.push_back(mt0);
    DiffConfig mt3;
    mt3.name = "O3+vec/mt/fz";
    mt3.optTier = 3;
    mt3.vectorize = true;
    mt3.threaded = true;
    mt3.fused = true;
    m.push_back(mt3);
    return m;
}

std::vector<DiffConfig>
nativeMatrix()
{
    std::vector<DiffConfig> m;
    for (int be = 0; be <= 2; ++be)  // 0 = vm, 1 = fused, 2 = native
        for (bool vec : {false, true})
            for (int tier = 0; tier <= 3; ++tier) {
                DiffConfig c;
                c.optTier = tier;
                c.vectorize = vec;
                c.fused = be == 1;
                c.native = be == 2;
                c.name = "O" + std::to_string(tier) +
                         (vec ? "+vec" : "") +
                         (be == 1 ? "/fz" : (be == 2 ? "/ng" : ""));
                m.push_back(c);
            }
    return m;
}

namespace {

/** One configuration's run: output bytes or a thrown-error note. */
struct CellResult
{
    bool ok = false;
    std::vector<uint8_t> out;
    std::string error;
};

CellResult
runOne(const ProgramFactory& make, const std::vector<uint8_t>& input,
       const DiffConfig& cfg)
{
    CellResult r;
    try {
        CompPtr prog = make();
        CompilerOptions opt = cfg.options();
        if (cfg.threaded) {
            auto p = compileThreadedPipeline(prog, opt);
            // Pad to a whole number of (possibly vectorized) input
            // elements so no config starves on a ragged tail.
            std::vector<uint8_t> padded = input;
            size_t w = std::max<size_t>(p->inWidth(), 1);
            if (padded.size() % w)
                padded.resize((padded.size() / w + 1) * w, 0);
            MemSource src(padded, w);
            VecSink sink(std::max<size_t>(p->outWidth(), 1));
            p->run(src, sink);
            r.out = sink.data();
        } else {
            auto p = compilePipeline(prog, opt);
            std::vector<uint8_t> padded = input;
            size_t w = std::max<size_t>(p->inWidth(), 1);
            if (padded.size() % w)
                padded.resize((padded.size() / w + 1) * w, 0);
            r.out = p->runBytes(padded);
        }
        r.ok = true;
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    return r;
}

std::string
hexContext(const std::vector<uint8_t>& buf, size_t at)
{
    std::ostringstream os;
    size_t lo = at >= 8 ? at - 8 : 0;
    size_t hi = std::min(buf.size(), at + 8);
    for (size_t i = lo; i < hi; ++i) {
        char b[8];
        std::snprintf(b, sizeof b, i == at ? "[%02x]" : " %02x ", buf[i]);
        os << b;
    }
    return os.str();
}

/** First index where the common prefixes differ, or SIZE_MAX. */
size_t
firstMismatch(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return SIZE_MAX;
}

} // namespace

DiffOutcome
runDifferential(const ProgramFactory& make,
                const std::vector<uint8_t>& input,
                const std::vector<DiffConfig>& configs,
                const std::string& label, size_t slackBytes)
{
    DiffOutcome out;
    if (configs.empty())
        fatalf("runDifferential: empty configuration matrix");

    std::vector<CellResult> cells;
    cells.reserve(configs.size());
    for (const DiffConfig& cfg : configs) {
        cells.push_back(runOne(make, input, cfg));
        ++out.configsRun;
    }

    std::ostringstream rep;
    rep << "program " << label << ":\n";

    // Any config that crashed is an immediate failure.
    for (size_t i = 0; i < cells.size(); ++i)
        if (!cells[i].ok) {
            out.agree = false;
            rep << "  config " << configs[i].name
                << " threw: " << cells[i].error << "\n";
        }

    out.baselineBytes = cells[0].ok ? cells[0].out.size() : 0;

    // Length sanity: vectorization may drop a bounded tail, but an
    // output shorter than about half the baseline means a config
    // silently starved.
    if (cells[0].ok)
        for (size_t i = 1; i < cells.size(); ++i) {
            if (!cells[i].ok)
                continue;
            size_t got = cells[i].out.size();
            if (2 * got + 2 * slackBytes < out.baselineBytes) {
                out.agree = false;
                rep << "  config " << configs[i].name << " produced "
                    << got << " bytes vs baseline "
                    << configs[0].name << "'s " << out.baselineBytes
                    << " (beyond tail slack)\n";
            }
        }

    // Content: every pair must agree on its common prefix.  Collect all
    // divergent pairs, then report the one with the fewest differing
    // config dimensions — that pair localizes the faulty pass.
    size_t bestI = SIZE_MAX, bestJ = SIZE_MAX, bestAt = 0;
    int bestDist = 99;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].ok)
            continue;
        for (size_t j = i + 1; j < cells.size(); ++j) {
            if (!cells[j].ok)
                continue;
            size_t at = firstMismatch(cells[i].out, cells[j].out);
            if (at == SIZE_MAX)
                continue;
            out.agree = false;
            int d = DiffConfig::distance(configs[i], configs[j]);
            if (d < bestDist) {
                bestDist = d;
                bestI = i;
                bestJ = j;
                bestAt = at;
            }
        }
    }
    if (bestI != SIZE_MAX) {
        rep << "  minimal divergent pair: " << configs[bestI].name
            << " vs " << configs[bestJ].name << " (distance " << bestDist
            << ") at byte " << bestAt << "\n"
            << "    " << configs[bestI].name << ": "
            << hexContext(cells[bestI].out, bestAt) << "\n"
            << "    " << configs[bestJ].name << ": "
            << hexContext(cells[bestJ].out, bestAt) << "\n";
    }

    if (!out.agree)
        out.report = rep.str();
    return out;
}

} // namespace difftest
} // namespace ziria
