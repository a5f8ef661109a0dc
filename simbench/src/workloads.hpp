#ifndef SIMBENCH_WORKLOADS_HPP_
#define SIMBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"

/**
 * @file
 * The benchmark's four workloads.  Each owns a fixed job set derived
 * from the seed; one *pass* runs the whole set once on a closed loop of
 * `threads` workers (each takes the next job when its last one ends).
 * Every simulated counter of every job folds, in input order, into the
 * pass's sim_digest, so the digest is independent of the thread count.
 */

namespace simbench {

struct Options {
    std::uint64_t seed = 1;
    int threads = 1;
    /// Shrunken job sets for the benchmark's own tests.
    bool shortMode = false;
    /// Directory the campaign workload journals into (created/removed
    /// per pass).
    std::string scratchDir;
};

/** Per-layer values keyed by metric name. */
using LayerMap = std::map<std::string, double>;

/** What one pass over the fixed job set produced. */
struct PassResult {
    double wallS = 0.0;
    /// Root span of the pass (0 while the recorder is disabled).
    std::uint64_t rootSpan = 0;
    /// Host time per job (ms).
    std::vector<double> jobMs;
    /// Σ job time over all workers (thread-seconds).
    double busyS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Simulated MCU cycles of the pass (0 where not observable).
    std::uint64_t simCycles = 0;
    std::uint64_t digest = 0;
    /// Simulated counts and layer times measured in the pass.
    LayerMap layer;
    /// Output-check failures, one line each.
    std::vector<std::string> failures;
};

/** Times of one set-up repetition. */
struct SetupResult {
    double seconds = 0.0;
    double buildS = 0.0;
    double compileS = 0.0;
    std::uint64_t programs = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char* name() const = 0;

    /**
     * Build and compile every program the workload needs into the
     * (cleared) global CompileCache, which the jobs then hit.
     * Repeatable: each call starts from an empty cache.
     */
    SetupResult setup();

    /** One-time warm-up that cannot be repeated (e.g. golden oracles). */
    virtual void warmOnce() {}

    virtual PassResult runPass() = 0;

    /**
     * Schedule later passes longest job first, by the warm-up pass's
     * per-job times (indexed like the job set), so the end of a pass
     * is not one long job running while the other workers idle.  Only
     * the closed-loop workloads read the order; the campaign engine
     * schedules its own jobs.
     */
    void orderLongestFirst(const PassResult& warmup);

    /**
     * Calibration probes of the traced run, timed on the workload's own
     * programs, devices and rigs.  `traced` holds the traced passes'
     * medians; the probes add their per-unit costs and layer shares.
     */
    virtual void probes(LayerMap& traced) = 0;

    /** Filesystem the workload writes to ("" = none). */
    virtual std::string writesTo() const { return ""; }

  protected:
    /// Job start order of the closed loop (empty = input order).
    std::vector<std::size_t> order_;

    struct Program {
        std::string workload;
        gecko::compiler::Scheme scheme = gecko::compiler::Scheme::kNvp;
        std::string cacheDevice;
        /// Tighter region budget (fault sim-level victims); 0 = default.
        std::uint64_t maxRegionCycles = 0;
    };
    virtual std::vector<Program> programs() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Options& options);

const std::vector<std::string>& workloadNames();

/** FNV-1a 64-bit fold of one value. */
inline std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_HPP_
