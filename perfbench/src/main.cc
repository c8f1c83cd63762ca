/**
 * @file
 * The benchmark binary (run through perfbench/run.py, which builds
 * it first):
 *
 *   zbench --workload phy_link|rx_pipelined|serve_churn --seed N
 *          --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]
 *   zbench --self-test
 *
 * Prints a human-readable table of the workload's figures, one JSON
 * line holding the run envelope, and as the last line the result
 * object {"correct","attempted","failed","metrics"}.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "oracle.h"
#include "support/metrics.h"
#include "zcgen/cgen.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: zbench --workload phy_link|rx_pipelined|"
                 "serve_churn --seed N --seconds S --trace 0|1\n"
                 "              [--work-dir DIR] [--commit ID]\n"
                 "       zbench --self-test\n");
    return 2;
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--work-dir") {
            a.workDir = v;
        } else if (k == "--commit") {
            a.commit = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return a.selfTest || !a.workload.empty();
}

std::string
quote(const std::string& s)
{
    return "\"" + ziria::metrics::jsonEscape(s) + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return usage();
    if (a.selfTest)
        return oracleSelfTest() ? 0 : 1;

    Result r;
    try {
        if (a.workload == "phy_link")
            r = runPhyLink(a);
        else if (a.workload == "rx_pipelined")
            r = runRxPipelined(a);
        else if (a.workload == "serve_churn")
            r = runServeChurn(a);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", a.workload.c_str(),
                     e.what());
        return 1;
    }
    r.e2e["peak_rss_mb"] = peakRssMb();

    // Every reported key must be declared; a stray one is a bug here.
    const auto& decls = a.trace ? kPerLayer : kEndToEnd;
    const auto& values = a.trace ? r.layer : r.e2e;
    for (const auto& [k, v] : values) {
        bool known = false;
        for (const auto& d : decls)
            known = known || k == d.name;
        if (!known) {
            std::fprintf(stderr, "error: undeclared metric %s\n",
                         k.c_str());
            return 1;
        }
    }

    std::string tracePath;
    if (a.trace) {
        tracePath = workPath(a, "traces") + "/" + a.workload + "-seed" +
                    std::to_string(a.seed) + ".json";
        if (!Tracer::get().writeTrace(tracePath))
            tracePath = "(write failed)";
    }

    std::printf("%s  seed %llu  %.0f s  trace %d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0);
    for (const auto& n : r.named)
        std::printf("  %-22s %14.4f %-7s %s\n", n.name.c_str(), n.value,
                    n.unit.c_str(), n.note.c_str());

    std::string env = "{\"envelope\":{";
    env += "\"workload\":" + quote(a.workload);
    env += ",\"seed\":" + std::to_string(a.seed);
    env += ",\"seconds\":" + number(a.seconds);
    env += ",\"trace\":" + std::to_string(a.trace ? 1 : 0);
    env += ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency());
    env += ",\"commit\":" + quote(a.commit);
    if (r.envelope["compiler"].empty())
        r.envelope["compiler"] = ziria::zcgen::compilerVersion();
    for (const auto& [k, v] : r.envelope)
        env += "," + quote(k) + ":" + quote(v);
    if (!tracePath.empty())
        env += ",\"trace_file\":" + quote(tracePath);
    env += ",\"figures\":{";
    for (size_t i = 0; i < r.named.size(); ++i) {
        const auto& n = r.named[i];
        env += (i ? "," : "") + quote(n.name) + ":{\"value\":" +
               number(n.value) + ",\"unit\":" + quote(n.unit) + "}";
    }
    env += "}}}";
    std::printf("%s\n", env.c_str());

    bool correct = r.failed == 0 && r.selfCheckFired && r.attempted > 0;
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& d : decls) {
        auto it = values.find(d.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        out += (first ? "" : ",") + quote(d.name) + ":{\"value\":" +
               number(v) + ",\"unit\":" + quote(d.unit) + "}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}
