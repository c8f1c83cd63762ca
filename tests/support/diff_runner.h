/**
 * @file
 * N-way differential runner: compile one program under a matrix of
 * compiler configurations, run them all on the same input, and demand
 * bit-exact agreement on the stream prefix every configuration
 * produced.  On disagreement the report names the *minimal divergent
 * pair* — the two configurations that disagree while differing in the
 * fewest dimensions (opt tier, vectorization, threading) — which is
 * usually enough to tell which compiler stage broke.
 */
#ifndef ZIRIA_TESTS_SUPPORT_DIFF_RUNNER_H
#define ZIRIA_TESTS_SUPPORT_DIFF_RUNNER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "zast/comp.h"
#include "zir/compiler.h"

namespace ziria {
namespace difftest {

/** One cell of the configuration matrix. */
struct DiffConfig
{
    std::string name;      ///< e.g. "O2+vec", "O0/mt", "O3+vec/fz"
    int optTier = 0;       ///< 0 = none, 1 = fold, 2 = +map/fuse, 3 = +LUT
    bool vectorize = false;
    bool threaded = false;
    bool fused = false;    ///< Backend::Fused instead of the VM
    bool native = false;   ///< Backend::Native (wins over `fused`)

    /** Lower the tier/flags into a full CompilerOptions. */
    CompilerOptions options() const;

    /** Number of dimensions in which two configs differ (0..5). */
    static int distance(const DiffConfig& a, const DiffConfig& b);
};

/**
 * The default 10-config matrix: O0-O3 with vectorization off, O0-O3
 * with vectorization on, plus a threaded pipeline at both extremes
 * (O0 plain and O3 vectorized).
 */
std::vector<DiffConfig> defaultMatrix();

/** The full 16-config cross product {O0..O3} x {vec} x {mt}. */
std::vector<DiffConfig> fullMatrix();

/**
 * The fused-backend matrix: the cross product {O0..O3} x {vec} x
 * {vm,fused} (16 configs, config 0 = unoptimized VM baseline), plus two
 * threaded fused cells (O0 and O3+vec) where each `|>>>|` partition is
 * its own region on its own thread.
 */
std::vector<DiffConfig> fusedMatrix();

/**
 * The three-backend matrix: {O0..O3} x {vec} x {vm,fused,native}
 * (24 configs, config 0 = unoptimized VM baseline).  Native cells
 * compile through the shared-object cache (honours $ZIRIA_CGEN_CACHE),
 * falling back to the fused interpreter when no compiler is available —
 * callers that must exercise real machine code should gate on
 * zcgen::compilerAvailable() first.
 */
std::vector<DiffConfig> nativeMatrix();

/** Outcome of one differential run. */
struct DiffOutcome
{
    bool agree = true;
    /** Failure narrative: divergent pair, offset, context. */
    std::string report;
    /** Baseline (configs[0]) output size in bytes. */
    size_t baselineBytes = 0;
    int configsRun = 0;
};

/** Builds a fresh AST per compile (generators are deterministic). */
using ProgramFactory = std::function<CompPtr()>;

/**
 * Compile @p make() under every configuration, run on @p input, and
 * compare.  Configuration 0 is the baseline.  Outputs may lose a
 * bounded tail to vectorization granularity, so agreement means: every
 * pair of outputs is identical on their common prefix, and no output
 * is shorter than roughly half the baseline (beyond @p slackBytes).
 */
DiffOutcome runDifferential(const ProgramFactory& make,
                            const std::vector<uint8_t>& input,
                            const std::vector<DiffConfig>& configs,
                            const std::string& label,
                            size_t slackBytes = 1024);

} // namespace difftest
} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_DIFF_RUNNER_H
