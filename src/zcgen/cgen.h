/**
 * @file
 * The native code-generation backend: emit + dlopen compiled C++.
 *
 * This is the paper's "compile Ziria to C" execution story taken to its
 * end: instead of interpreting fused bytecode (src/zfuse/), each fused
 * region is re-emitted as one self-contained straight-line C++ function
 * — external takes/emits become the same parked-pc protocol, internal
 * `>>>` channels become direct `goto`s, and expression closures are
 * inlined as scalar/array code — then compiled with the system C++
 * compiler into a shared object and bound through `dlopen` behind the
 * unchanged ExecNode seam.  The region is the fused backend's
 * (`buildRegion`: one per partition, native kernels inline), so the
 * Spin livelock diagnostic is preserved verbatim.
 *
 * Compiled objects are cached on disk keyed by a hash of the emitted
 * source, the compiler version and the flags; a CRC-checked manifest
 * guards against torn or corrupted cache entries (same hygiene as
 * zexec/ckpt_store.h).  No working compiler, a failed compile, or a
 * missing symbol all degrade loudly to the bytecode interpreter for the
 * region (fallback ladder: native -> fused).
 *
 * Selected via `CompilerOptions::backend` / `zirrun --backend=native`.
 * Emission strategy, cache-key derivation and the security rationale
 * for only dlopen-ing from the trusted cache are in docs/CODEGEN.md.
 */
#ifndef ZIRIA_ZCGEN_CGEN_H
#define ZIRIA_ZCGEN_CGEN_H

#include <memory>
#include <string>

#include "zfuse/fuse.h"

namespace ziria {

/** Statistics from one native build (CompileReport::cgen). */
struct CgenStats
{
    int regions = 0;      ///< fused regions built (one per partition)
    int emitted = 0;      ///< regions emitted as C++
    int compiled = 0;     ///< translation units compiled this run
    int cacheHits = 0;    ///< translation units served from the cache
    int cacheMisses = 0;  ///< translation units not found in the cache
    int fallbacks = 0;    ///< regions left on the bytecode interpreter
    int hostBridges = 0;  ///< closures and lookups left on host callbacks
    double compileSec = 0.0;   ///< wall time spent in the C++ compiler
    std::string compiler;      ///< compiler version line ("" if none)
    std::string cacheKey;      ///< cache key of the last translation unit
};

namespace zcgen {

/** Is a working C++ compiler available?  Probed once per process. */
bool compilerAvailable();

/** First `--version` line of the discovered compiler ("" if none). */
const std::string& compilerVersion();

/**
 * Resolve the shared-object cache directory: @p flagValue if non-empty,
 * else $ZIRIA_CGEN_CACHE, else ~/.cache/ziria/zcgen.
 */
std::string resolveCacheDir(const std::string& flagValue);

/** A dlopen'd shared object; closed when the last region using it dies. */
class Library
{
  public:
    explicit Library(void* handle) : handle_(handle) {}
    ~Library();
    Library(const Library&) = delete;
    Library& operator=(const Library&) = delete;

    /** Resolve a symbol (nullptr if missing). */
    void* sym(const char* name) const;

  private:
    void* handle_;
};

/** Outcome of compiling (or cache-loading) one translation unit. */
struct JitResult
{
    std::shared_ptr<Library> lib;  ///< null on failure
    bool cacheHit = false;
    double compileSec = 0.0;
    std::string key;               ///< cache key (hex)
    std::string error;             ///< diagnostic when lib is null
};

/**
 * Compile @p source into a cached shared object under @p cacheDir and
 * dlopen it.  Serves a CRC-verified cache hit without invoking the
 * compiler; quarantines corrupt entries (renamed to *.bad) and
 * recompiles.  Never throws: failures come back in JitResult::error.
 */
JitResult compileUnit(const std::string& source,
                      const std::string& cacheDir);

/** FNV-1a 64-bit hash as 16 hex digits (cache keys; exposed for tests). */
std::string fnv1a64Hex(const std::string& data);

} // namespace zcgen

/**
 * Build the execution tree with the native backend: the fused region
 * is built unchanged, then bound to dlopen'd machine code (or stays on
 * the bytecode interpreter when compilation is unavailable — counted
 * in @p cstats->fallbacks and in the `ziria.cgen.fallbacks` metric).  Drop-in replacement for
 * buildNodeFused.  @p cacheDir empty means the default cache location.
 */
NodePtr buildNodeNative(const CompPtr& c, ExprCompiler& ec,
                        const BuildOptions& opt, BuildStats* stats,
                        FuseStats* fstats, CgenStats* cstats,
                        const std::string& cacheDir,
                        const std::string& path = "root");

} // namespace ziria

#endif // ZIRIA_ZCGEN_CGEN_H
