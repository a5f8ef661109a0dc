#ifndef GECKO_METRICS_BENCH_JSON_HPP_
#define GECKO_METRICS_BENCH_JSON_HPP_

#include <cstdint>
#include <string>
#include <vector>

/**
 * @file
 * Machine-readable benchmark telemetry (`BENCH_*.json`).
 *
 * Each figure/table binary can emit one JSON object describing its
 * sweep executions: wall time, task counts, thread count, and the
 * aggregate simulated machine cycles per wall second (the interpreter
 * throughput metric the perf trajectory tracks).  `bench_all`
 * aggregates the per-figure objects into `BENCH_sweeps.json` and
 * compares against a recorded serial baseline.
 *
 * The format is intentionally small and flat; it is read back through
 * the strict parser of metrics/json.hpp.
 */

namespace gecko::metrics {

/** Telemetry of one runSweep call. */
struct SweepRecord {
    std::string label;
    /// Sweep points executed.
    std::size_t tasks = 0;
    /// Worker threads of the pool that ran the sweep.
    int threads = 1;
    /// Wall time of the whole sweep (s).
    double wallS = 0.0;
    /// Sum of per-task wall times (s); taskS / wallS ~ achieved
    /// parallelism.
    double taskS = 0.0;
};

/**
 * Wire-format version of BenchReport::toJson().  History:
 *  - 1: initial format (implicit — records without a
 *    `schema_version` key are version 1).
 *  - 2: added `schema_version` itself and the optional `trace_out`
 *    path of the event-trace file written alongside the report.
 *  - 3: added `seed` (effective GECKO_SEED, 0 = unseeded) and
 *    `defense_mode` (the run's defense configuration: "static" for the
 *    paper's fixed detectors, "adaptive" when the online controller
 *    was armed).  `threads` was already the effective pool width.
 *  - 4: added `exec_backend` (the sim::Machine execution tier the run
 *    used: "step" or "block"; older records may name the since-retired
 *    "fast" tier) so throughput numbers are attributable to a dispatch
 *    strategy.
 *  - 5: added the quantum-loop telemetry `quanta`, `coalesced_quanta`
 *    and `quanta_per_s` (monitor-sample quanta simulated, the subset
 *    absorbed by the coalescing fast path — DESIGN.md §14 — and the
 *    quantum throughput) so coalescing effectiveness is recorded next
 *    to the cycle rate it improves.
 *  - 6: added the optional `figure_data` object — raw per-figure
 *    payload (e.g. the per-cell susceptibility map of fig_spatial_map)
 *    emitted verbatim by the bench that produced it.
 *  - 7: fig_adversarial's defense-vs-best-attack matrix rides in
 *    `figure_data`, and the campaign aggregate it embeds gained the
 *    per-group `commits` counter (campaign schema v5).
 *  - 8: added `sleep_quanta` next to `quanta`: monitor-sample quanta
 *    stepped while sleeping, which `quanta` (running quanta) omits —
 *    about half of all stepped quanta under a continuous tone.
 *  - 9: added `fused_quanta` next to `coalesced_quanta`: running and
 *    sleeping quanta advanced by the fused EMI-active kernel (DESIGN.md
 *    §14), so a record shows that its defended runs fuse as well as
 *    coalesce.
 * Readers look keys up by name and ignore the ones they do not know,
 * so newer records keep aggregating under older readers.
 */
inline constexpr int kBenchSchemaVersion = 9;

/** Telemetry of one bench binary run. */
struct BenchReport {
    int schemaVersion = kBenchSchemaVersion;
    std::string figure;
    int threads = 1;
    unsigned hostCores = 1;
    /// Effective global seed of the run (GECKO_SEED / --seed=; 0 =
    /// unseeded historical sequences).
    std::uint64_t seed = 0;
    /// Defense configuration the victims ran with: "static" (paper
    /// default) or "adaptive" (online controller armed).
    std::string defenseMode = "static";
    /// Execution tier the victims' machines dispatched with ("step" or
    /// "block"; see sim::ExecBackend).
    std::string execBackend = "block";
    /// Process wall time from bench::init to report write (s).
    double wallS = 0.0;
    /// Recorded serial (1-thread) wall time for the same figure; 0
    /// when unknown.  Carried so speedup survives re-aggregation.
    double serialWallS = 0.0;
    /// Simulated machine cycles executed across every victim run.
    std::uint64_t simCycles = 0;
    /// Monitor-sample quanta simulated across every victim run, and the
    /// subset the fused kernel advanced with no tone active (schema v5).
    std::uint64_t quanta = 0;
    std::uint64_t coalescedQuanta = 0;
    /// Monitor-sample quanta stepped while sleeping (schema v8).
    std::uint64_t sleepQuanta = 0;
    /// Running and sleeping quanta the fused kernel advanced under a
    /// tone (schema v9).
    std::uint64_t fusedQuanta = 0;
    /// Bench verdict: "pass", "fail", or "" (bench has no pass/fail
    /// semantics — treated as pass by aggregation).
    std::string status;
    /// Checkpoint-integrity defence counters accumulated across every
    /// victim run of the bench (see runtime::RuntimeStats).
    std::uint64_t corruptedRestores = 0;
    std::uint64_t crcRejects = 0;
    std::uint64_t retriesExhausted = 0;
    /// Path of the event-trace file written for this run ("" = none).
    std::string traceOut;
    /// Raw per-figure JSON payload emitted verbatim as `figure_data`
    /// (schema v6); "" = none.  The bench owns the sub-schema.
    std::string figureData;
    std::vector<SweepRecord> sweeps;

    /** Speedup vs. the recorded serial baseline (0 = unknown). */
    double speedup() const
    {
        return (serialWallS > 0 && wallS > 0) ? serialWallS / wallS : 0.0;
    }

    /** Render as a single JSON object. */
    std::string toJson() const;
};

/** Escape a string for inclusion in a JSON literal. */
std::string jsonEscape(const std::string& s);

/**
 * Durable append-only JSONL writer (campaign manifests / result
 * streams).
 *
 * Guarantees, within POSIX semantics:
 *  - a record is staged in one buffer (line + '\n') and pushed through
 *    a single write() loop that retries short writes and EINTR with a
 *    bounded linear backoff, so this writer never *emits* a torn
 *    record — only a crash mid-write can truncate the file tail, which
 *    readers must (and do) tolerate;
 *  - fsync runs every `syncEvery` records and on demand via sync(), so
 *    the window of journal loss after a SIGKILL is bounded;
 *  - opening in append mode cuts an unterminated tail (the fragment a
 *    crash left) back to the last '\n', so the next record never glues
 *    onto it.  Recovery reads the journal before the writer opens it,
 *    so the fragment is still counted as torn.
 *
 * Not thread-safe; callers serialize (the campaign engine holds a
 * journal mutex).
 */
class JsonlWriter
{
  public:
    /**
     * @param path      output file (created if missing)
     * @param append    append to an existing file (cutting a torn
     *                  tail) vs truncate
     * @param syncEvery fsync cadence in records (0 = only explicit
     *                  sync())
     */
    JsonlWriter(const std::string& path, bool append,
                std::size_t syncEvery = 32);
    ~JsonlWriter();

    JsonlWriter(const JsonlWriter&) = delete;
    JsonlWriter& operator=(const JsonlWriter&) = delete;

    /** Open and every write so far succeeded. */
    bool ok() const { return fd_ >= 0 && !failed_; }

    /**
     * Append one record (a trailing '\n' is added; `line` must not
     * contain one).  @return false if the write ultimately failed —
     * the writer latches failed() and refuses further records.
     */
    bool append(const std::string& line);

    /** Force an fsync now. @return false on failure. */
    bool sync();

    std::uint64_t records() const { return records_; }
    std::uint64_t syncs() const { return syncs_; }

  private:
    int fd_ = -1;
    bool failed_ = false;
    std::size_t syncEvery_;
    std::uint64_t records_ = 0;
    std::uint64_t sinceSync_ = 0;
    std::uint64_t syncs_ = 0;
};

}  // namespace gecko::metrics

#endif  // GECKO_METRICS_BENCH_JSON_HPP_
