#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "sim/machine.hpp"
#include "trace/trace.hpp"

#include "spans.hpp"
#include "workloads.hpp"

/**
 * @file
 * simbench: the in-process speed benchmark of the simulator.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--threads T] [--short] [--scratch DIR] [--spans-out FILE]
 *
 * --trace 0 measures the end-to-end metrics with the span recorder
 * off.  --trace 1 is the traced run: a few untraced passes, then
 * traced passes whose spans give each layer's self time, then the
 * calibration probes; it prints the per-layer metrics.  The last line
 * of stdout is one JSON object {correct, attempted, failed, metrics};
 * the exit code is 1 when any output check failed.  See README.md.
 */

namespace {

using namespace simbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 0;
    bool shortMode = false;
    std::string scratch = ".bench_build/simbench-scratch";
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "simbench: " << why
              << "\nusage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--threads T] [--short] [--scratch DIR] "
                 "[--spans-out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            a.trace = value() == "1";
        } else if (arg == "--threads") {
            a.threads = std::atoi(value().c_str());
        } else if (arg == "--short") {
            a.shortMode = true;
        } else if (arg == "--scratch") {
            a.scratch = value();
        } else if (arg == "--spans-out") {
            a.spansOut = value();
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    // A fixed pool of 4 workers, fewer only on a smaller host.
    if (a.threads <= 0)
        a.threads = std::min(4, cores);
    return a;
}

/**
 * Each of these silently changes what is simulated or how fast
 * (coalescing limit, execution tier, pool size, global seed, livelock
 * watchdog, event tracing, block-cache diagnostics).  The benchmark
 * pins them by refusing to run while any is set.
 */
const char* const kPinnedEnv[] = {
    "GECKO_COALESCE", "GECKO_EXEC",         "GECKO_THREADS",
    "GECKO_SEED",     "GECKO_WATCHDOG",     "GECKO_TRACE_OUT",
    "GECKO_TRACE_BLOCKS", "GECKO_DUMP_BLOCKS",
};

std::string
filesystemOf(const std::string& path)
{
    struct statfs st {};
    if (path.empty() || statfs(path.c_str(), &st) != 0)
        return "none";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0xEF53: return "ext4";
        case 0x58465342: return "xfs";
        case 0x9123683E: return "btrfs";
        case 0x01021994: return "tmpfs";
        case 0x794c7630: return "overlay";
        case 0x6969: return "nfs";
        case 0x2fc12fc1: return "zfs";
        case 0x65735546: return "fuse";
        default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Linear-interpolated percentile `p` (0-100) of `xs`. */
double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Metric {
    const char* name;
    const char* unit;
};

/// End-to-end metrics (--trace 0), in print order.
const Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"job_ms_p50", "ms"},    {"job_ms_tail", "ms"},
    {"peak_rss_mb", "MiB"},  {"ok_frac", "ratio"},
};

/// Per-layer metrics (--trace 1), in print order.  Every workload
/// prints every one; a layer the workload does not exercise reads 0.
const Metric kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"compiler.compile_s", "s"},
    {"compiler.programs", "count"},
    {"compiler.lookup_s", "s"},
    {"sim.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.quanta", "count"},
    {"sim.stepped_quanta", "count"},
    {"sim.coalesced_frac", "ratio"},
    {"sim.ns_per_stepped_quantum", "ns"},
    {"sim.cycles_per_s", "cycles/s"},
    {"machine.instrs", "count"},
    {"machine.cycles", "count"},
    {"machine.ns_per_instr", "ns"},
    {"machine.share", "ratio"},
    {"jit.attempts", "count"},
    {"jit.complete_frac", "ratio"},
    {"jit.torn", "count"},
    {"jit.aborted", "count"},
    {"jit.ns_per_word", "ns"},
    {"jit.share", "ratio"},
    {"analog.ns_per_sample", "ns"},
    {"analog.share", "ratio"},
    {"energy.reboots", "count"},
    {"energy.hard_deaths", "count"},
    {"energy.backup_signals", "count"},
    {"runtime.rollbacks", "count"},
    {"runtime.jit_restores", "count"},
    {"runtime.corrupted_restores", "count"},
    {"runtime.crc_rejects", "count"},
    {"defense.escalations", "count"},
    {"exp.job_self_s", "s"},
    {"exp.busy_frac", "ratio"},
    {"campaign.fresh_s", "s"},
    {"campaign.resume_s", "s"},
    {"campaign.recover_s", "s"},
    {"campaign.job_s", "s"},
    {"campaign.journal_bytes", "bytes"},
    {"campaign.slices", "count"},
    {"campaign.requeued", "count"},
    {"campaign.resumed_from_snapshot", "count"},
    {"campaign.quarantined", "count"},
    {"fault.campaign_s", "s"},
    {"fault.cases_s", "s"},
    {"fault.cases_s.bitflip", "s"},
    {"fault.cases_s.multibitflip", "s"},
    {"fault.cases_s.tornwrite", "s"},
    {"fault.cases_s.ackcorrupt", "s"},
    {"fault.cases_s.staleimage", "s"},
    {"fault.cases_s.monitorstuck", "s"},
    {"fault.cases_s.monitoroffset", "s"},
    {"fault.cases_s.brownoutburst", "s"},
    {"fault.cases_s.emiburst", "s"},
    {"fault.cases_s.instrskip", "s"},
    {"fault.cases_s.opcodecorrupt", "s"},
    {"fault.cases_s.operandflip", "s"},
    {"fault.overhead_s", "s"},
    {"fault.corpus_cases", "count"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.coverage", "ratio"},
};

/// Span name -> per-layer metric holding its summed self time.
const std::pair<const char*, const char*> kSpanMetric[] = {
    {"compiler.lookup", "compiler.lookup_s"},
    {"sim.build", "sim.build_s"},
    {"sim.run", "sim.run_s"},
    {"exp.job", "exp.job_self_s"},
    {"campaign.job", "campaign.job_s"},
    {"fault.campaign", "fault.campaign_s"},
};

std::string
metricsJson(const Metric* begin, const Metric* end, const LayerMap& values)
{
    std::string out = "{";
    for (const Metric* m = begin; m != end; ++m) {
        auto it = values.find(m->name);
        const double v = it == values.end() ? 0.0 : it->second;
        if (out.size() > 1)
            out += ", ";
        out += '"';
        out += m->name;
        out += "\": {\"value\": ";
        out += num(v);
        out += ", \"unit\": \"";
        out += m->unit;
        out += "\"}";
    }
    return out + "}";
}

/** Median of each key over the maps (a key missing from one reads 0). */
LayerMap
medianOf(const std::vector<LayerMap>& maps)
{
    std::map<std::string, std::vector<double>> byKey;
    for (const LayerMap& m : maps)
        for (const auto& [k, v] : m)
            byKey[k];
    for (const LayerMap& m : maps)
        for (auto& [k, vs] : byKey) {
            auto it = m.find(k);
            vs.push_back(it == m.end() ? 0.0 : it->second);
        }
    LayerMap out;
    for (auto& [k, vs] : byKey)
        out[k] = median(vs);
    return out;
}

/** Accumulates passes and checks that their digests agree. */
struct PassLog {
    std::vector<PassResult> passes;
    std::vector<std::string> failures;
    std::uint64_t firstDigest = 0;
    bool haveDigest = false;

    /** @param measured false for the untimed warm-up pass. */
    void add(PassResult p, const char* mode, bool measured = true)
    {
        const std::size_t no = measured ? passes.size() + 1 : 0;
        std::cout << "pass " << no << " " << mode
                  << " wall_s=" << num(p.wallS) << " jobs=" << p.jobMs.size()
                  << " sim_digest=" << hex(p.digest) << "\n";
        if (!haveDigest) {
            firstDigest = p.digest;
            haveDigest = true;
        } else if (p.digest != firstDigest) {
            failures.push_back("sim_digest of pass " + std::to_string(no) +
                               " (" + hex(p.digest) +
                               ") differs from the first pass (" +
                               hex(firstDigest) + ")");
        }
        for (const std::string& f : p.failures)
            failures.push_back(f);
        if (measured)
            passes.push_back(std::move(p));
    }

    std::uint64_t attempted() const
    {
        std::uint64_t n = 0;
        for (const PassResult& p : passes)
            n += p.attempted;
        return n;
    }

    std::uint64_t failed() const
    {
        std::uint64_t n = 0;
        for (const PassResult& p : passes)
            n += p.failed;
        return n;
    }

    std::vector<double> walls() const
    {
        std::vector<double> w;
        for (const PassResult& p : passes)
            w.push_back(p.wallS);
        return w;
    }

    double cyclesPerS() const
    {
        std::vector<double> r;
        for (const PassResult& p : passes)
            r.push_back(p.wallS > 0 ? static_cast<double>(p.simCycles) / p.wallS
                                    : 0.0);
        return median(r);
    }
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The tail percentile is fixed (so runs of different speed compare)
/// and untraced runs collect at least kMinTailJobs jobs, which leaves
/// at least 10 beyond it.
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kMinTailJobs = 100;

}  // namespace

int
main(int argc, char** argv)
{
    const auto processStart = Clock::now();
    Args args = parseArgs(argc, argv);
    for (const char* var : kPinnedEnv)
        if (std::getenv(var)) {
            std::cerr << "simbench: " << var
                      << " is set; it changes what is simulated or how "
                         "fast, so the benchmark refuses to run with it\n";
            return 2;
        }

    Options opt;
    opt.seed = args.seed;
    opt.threads = args.threads;
    opt.shortMode = args.shortMode;
    opt.scratchDir = args.scratch + "/" + std::to_string(::getpid());
    std::unique_ptr<Workload> workload;
    try {
        workload = makeWorkload(args.workload, opt);
    } catch (const std::exception& e) {
        std::cerr << "simbench: " << e.what() << "\n";
        return 2;
    }
    if (!workload)
        usage("unknown workload " + args.workload);

    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    std::cout << "simbench workload=" << args.workload
              << " mode=" << (args.trace ? "traced" : "untraced")
              << (args.shortMode ? " short" : "") << "\n"
              << "env host_cores=" << cores
              << " build_type=" << SIMBENCH_BUILD_TYPE
              << " trace_compiled_in=" << gecko::trace::compiledIn()
              << " exec_backend="
              << gecko::sim::execBackendName(gecko::sim::defaultExecBackend())
              << " threads=" << args.threads << " seed=" << args.seed
              << " campaign_fs=" << filesystemOf(workload->writesTo())
              << "\n";

    int rc = 0;
    try {
        // ---- Set-up: build and compile everything into an emptied
        // CompileCache, repeated at the start and again after every
        // measured pass, so the median samples the whole run rather than
        // its first tenth of a second (the host's speed drifts over
        // seconds).  setup_s is that median plus the one-time costs
        // (process start to here, warm-ups that cannot repeat). ----
        std::vector<double> setupS, buildS, compileS;
        std::uint64_t programs = 0;
        auto setupRep = [&] {
            SetupResult s = workload->setup();
            setupS.push_back(s.seconds);
            buildS.push_back(s.buildS);
            compileS.push_back(s.compileS);
            programs = s.programs;
        };
        const int startReps = args.shortMode ? 1 : 3;
        for (int r = 0; r < startReps; ++r)
            setupRep();
        const double startupS = secondsSince(processStart) -
                                std::accumulate(setupS.begin(), setupS.end(),
                                                0.0);
        const auto tw = Clock::now();
        workload->warmOnce();
        const double oneTimeS = startupS + secondsSince(tw);

        PassLog untraced;
        PassLog traced;
        std::vector<LayerMap> tracedLayers;
        std::vector<SpanRec> allSpans;
        std::vector<std::uint64_t> roots;

        // One untimed pass first: page faults, allocator arenas and the
        // host's clock ramp settle before anything is measured, and its
        // job times set the longest-first order.  Its digest still has
        // to match.
        {
            PassResult warmup = workload->runPass();
            workload->orderLongestFirst(warmup);
            untraced.add(std::move(warmup), "warmup", false);
        }

        const auto t0 = Clock::now();
        const double untracedBudget =
            args.trace ? 0.35 * args.seconds : args.seconds;
        const std::size_t minPasses = args.trace ? 2 : 3;
        auto jobCount = [&] {
            std::size_t n = 0;
            for (const PassResult& p : untraced.passes)
                n += p.jobMs.size();
            return n;
        };
        while (untraced.passes.size() < minPasses ||
               (secondsSince(t0) < untracedBudget) ||
               (!args.trace && jobCount() < kMinTailJobs &&
                secondsSince(t0) < 3 * args.seconds)) {
            untraced.add(workload->runPass(), "untraced");
            setupRep();
        }
        const double setupMedian = median(setupS);
        std::cout << "setup reps=" << setupS.size()
                  << " median_s=" << num(setupMedian)
                  << " one_time_s=" << num(oneTimeS)
                  << " programs=" << programs << "\n";

        if (args.trace) {
            Tracer& tracer = Tracer::instance();
            const auto t1 = Clock::now();
            const double tracedBudget = 0.4 * args.seconds;
            tracer.setEnabled(true);
            while (traced.passes.size() < 2 || secondsSince(t1) < tracedBudget) {
                PassResult p = workload->runPass();
                std::vector<SpanRec> spans = tracer.take();
                SpanAnalysis a = analyse(spans, p.rootSpan);
                LayerMap l = p.layer;
                for (const auto& [span, metric] : kSpanMetric)
                    if (auto it = a.selfS.find(span); it != a.selfS.end())
                        l[metric] = it->second;
                l["trace.wall_s"] = p.wallS;
                l["trace.unattributed_s"] = a.unattributedS;
                l["trace.coverage"] =
                    a.wallS > 0 ? 1.0 - a.unattributedS / a.wallS : 0.0;
                l["exp.busy_frac"] =
                    p.busyS / (p.wallS * static_cast<double>(args.threads));
                if (!a.nests)
                    p.failures.push_back("traced pass: spans do not nest");
                if (a.maxLaneSelfS > a.wallS + 1e-6)
                    p.failures.push_back(
                        "traced pass: a lane's self time exceeds the wall");
                tracedLayers.push_back(std::move(l));
                roots.push_back(p.rootSpan);
                allSpans.insert(allSpans.end(), spans.begin(), spans.end());
                traced.add(std::move(p), "traced");
            }
            tracer.setEnabled(false);
            if (traced.firstDigest != untraced.firstDigest)
                traced.failures.push_back(
                    "sim_digest differs between the traced and untraced "
                    "runs");
        }

        std::vector<std::string> failures = untraced.failures;
        failures.insert(failures.end(), traced.failures.begin(),
                        traced.failures.end());
        const std::uint64_t attempted =
            untraced.attempted() + traced.attempted();
        const std::uint64_t failed = untraced.failed() + traced.failed();
        std::string metricsText;

        if (!args.trace) {
            std::vector<double> jobs;
            for (const PassResult& p : untraced.passes)
                jobs.insert(jobs.end(), p.jobMs.begin(), p.jobMs.end());
            const double tail = percentile(jobs, kTailPercentile);
            const auto beyond = static_cast<std::size_t>(
                std::count_if(jobs.begin(), jobs.end(),
                              [&](double x) { return x > tail; }));
            LayerMap e2e;
            e2e["setup_s"] = oneTimeS + setupMedian;
            e2e["wall_s"] = median(untraced.walls());
            e2e["job_ms_p50"] = median(jobs);
            e2e["job_ms_tail"] = tail;
            e2e["peak_rss_mb"] = peakRssMiB();
            e2e["ok_frac"] =
                attempted ? 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                          : 0.0;
            for (const Metric& m : kEndToEnd)
                std::cout << "metric " << m.name << " " << num(e2e[m.name])
                          << " " << m.unit << "\n";
            std::cout << "info job_ms_tail percentile=p"
                      << num(kTailPercentile) << " jobs=" << jobs.size()
                      << " jobs_beyond=" << beyond << "\n"
                      << "info passes=" << untraced.passes.size()
                      << " sim_cycles_per_pass="
                      << untraced.passes.front().simCycles << "\n"
                      << "info pass_walls_s";
            for (double w : untraced.walls()) {
                char buf[24];
                std::snprintf(buf, sizeof buf, " %.4f", w);
                std::cout << buf;
            }
            std::cout << "\n"
                      << "info sim_cycles_per_s " << num(untraced.cyclesPerS())
                      << " cycles/s\n"
                      << "info failed_frac "
                      << num(attempted ? static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 0.0)
                      << " ratio\n";
            metricsText = metricsJson(std::begin(kEndToEnd),
                                      std::end(kEndToEnd), e2e);
        } else {
            LayerMap l = medianOf(tracedLayers);
            l["workloads.build_s"] = median(buildS);
            l["compiler.compile_s"] = median(compileS);
            l["compiler.programs"] = static_cast<double>(programs);
            l["sim.cycles_per_s"] = untraced.cyclesPerS();
            l["trace.overhead_s"] =
                median(traced.walls()) - median(untraced.walls());
            if (l["sim.quanta"] > 0)
                l["sim.coalesced_frac"] =
                    1.0 - l["sim.stepped_quanta"] / l["sim.quanta"];
            if (l["sim.stepped_quanta"] > 0)
                l["sim.ns_per_stepped_quantum"] =
                    l["sim.run_s"] * 1e9 / l["sim.stepped_quanta"];
            if (l["jit.attempts"] > 0)
                l["jit.complete_frac"] = l["jit.complete"] / l["jit.attempts"];
            const auto tp = Clock::now();
            workload->probes(l);
            std::cout << "probes_s " << num(secondsSince(tp)) << "\n";
            for (const Metric& m : kPerLayer)
                std::cout << "layer " << m.name << " " << num(l[m.name]) << " "
                          << m.unit << "\n";
            metricsText = metricsJson(std::begin(kPerLayer),
                                      std::end(kPerLayer), l);
            if (!args.spansOut.empty()) {
                std::ofstream out(args.spansOut);
                for (std::uint64_t r : roots)
                    out << "{\"root\": " << r << "}\n";
                for (const SpanRec& s : allSpans)
                    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
                        << ", \"parent\": " << s.parent
                        << ", \"lane\": " << s.lane << ", \"t0\": " << num(s.t0)
                        << ", \"t1\": " << num(s.t1) << "}\n";
                if (!out)
                    failures.push_back("cannot write " + args.spansOut);
            }
        }

        std::cout << "sim_digest " << hex(untraced.firstDigest) << "\n";
        for (const std::string& f : failures)
            std::cout << "check FAILED: " << f << "\n";
        const bool correct = failures.empty();
        std::cout << "check " << (correct ? "ok" : "FAILED") << "\n";
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted
                  << ", \"failed\": " << failed
                  << ", \"metrics\": " << metricsText << "}" << std::endl;
        rc = correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "simbench: " << e.what() << "\n";
        rc = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.scratchDir, ec);
    return rc;
}
