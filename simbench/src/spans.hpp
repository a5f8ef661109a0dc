#ifndef SIMBENCH_SPANS_HPP_
#define SIMBENCH_SPANS_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/**
 * @file
 * Benchmark-side span recorder.
 *
 * Spans are recorded only from the benchmark's own code, around the
 * calls it makes into the library's public entry points; nothing inside
 * the library is instrumented and no trace::Collector is installed (a
 * live collector would switch the simulator's coalescing fast path off
 * and so measure a different program).
 *
 * Each span has a name, a start and end on the steady clock, the lane
 * (thread) it ran on, and the span that caused it.  Nesting on one
 * thread is implicit (the innermost open span is the parent); a span
 * opened on a worker thread names its cross-thread parent explicitly.
 * Spans live in per-thread buffers until take() merges them.  While the
 * recorder is disabled a Span costs one branch.
 */

namespace simbench {

using Clock = std::chrono::steady_clock;

/** One closed span. */
struct SpanRec {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    int lane = -1;  ///< -1 = the recording thread's lane
    double t0 = 0.0;  ///< seconds since the recorder's epoch
    double t1 = 0.0;
};

/** Process-wide recorder. */
class Tracer
{
  public:
    static Tracer& instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Seconds since the recorder's epoch. */
    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    std::uint64_t newId();

    /** The calling thread's lane number. */
    int threadLane();

    /** Append a closed span to the calling thread's buffer. */
    void record(const SpanRec& span);

    /** Merge every thread's buffer (sorted by start) and clear them. */
    std::vector<SpanRec> take();

  private:
    Tracer() = default;
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
};

/** Id of the innermost open span on this thread (0 = none). */
std::uint64_t currentSpan();

/** RAII span; a no-op while the recorder is disabled. */
class Span
{
  public:
    /** Parent = the innermost open span on this thread. */
    explicit Span(const char* name) : Span(name, currentSpan()) {}
    Span(const char* name, std::uint64_t parent);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint64_t id() const { return rec_.id; }

  private:
    SpanRec rec_;
    std::uint64_t saved_ = 0;
    bool live_ = false;
};

/** Self time and coverage of one pass's span tree. */
struct SpanAnalysis {
    /// Root span duration (the pass wall).
    double wallS = 0.0;
    /// Σ self time per span name (thread-seconds).
    std::map<std::string, double> selfS;
    /// Pass wall covered by no non-root span.
    double unattributedS = 0.0;
    /// Every child lies inside its parent and no self time is negative.
    bool nests = true;
    /// Largest per-lane Σ self time (≤ wallS when spans are sound).
    double maxLaneSelfS = 0.0;
};

/**
 * Analyse the spans of one pass rooted at `root`: self time = duration
 * minus the union of its children's intervals (children may run on
 * other lanes).
 */
SpanAnalysis analyse(const std::vector<SpanRec>& spans, std::uint64_t root);

}  // namespace simbench

#endif  // SIMBENCH_SPANS_HPP_
