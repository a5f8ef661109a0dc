#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exp/thread_pool.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/json.hpp"
#include "metrics/table.hpp"

/**
 * @file
 * Driver that runs every figure/table binary, collects the per-figure
 * JSON telemetry (`GECKO_BENCH_JSON`), and aggregates it into a single
 * `BENCH_sweeps.json` with wall times, simulated-cycle throughput, and
 * speedup vs a serial baseline.
 *
 * Usage:  bench_all [--baseline] [--quick] [--threads=N] [--out=FILE]
 *                   [figure...]
 *   --baseline   also run each figure with GECKO_THREADS=1 and record
 *                the serial wall time (the speedup denominator)
 *   --quick      single-pass telemetry sweep: run every figure once,
 *                skip the serial-baseline pass even if requested, and
 *                warn if the pass exceeds the 30 s quick budget
 *   --threads=N  thread count for the parallel pass (default: the
 *                GECKO_THREADS env, else all host cores)
 *   --out=FILE   aggregate output path (default: BENCH_sweeps.json)
 *   figure...    subset of figures to run (default: all)
 */

namespace {

const std::vector<std::string> kFigures = {
    "fig04_dpi_sweep",  "fig05_remote_adc", "fig07_remote_comp",
    "fig08_distance",   "fig09_realtime",   "fig11_overhead",
    "fig12_pruning",    "fig13_detection",  "fig14_harvesting",
    "fig15_capacitor",  "fig_spatial_map",  "table1_devices",
    "table2_comparison", "table3_ckpt_counts", "ablation_detection",
    "ablation_pruning", "ablation_wcet",    "extension_wearout",
    "fault_campaign",   "campaign_runner",  "fig_adversarial",
    "fig_adaptive"};

struct FigureResult {
    std::string figure;
    /// Child telemetry schema version (0 = no readable record).
    int schemaVersion = 0;
    double wallS = 0.0;
    double serialWallS = 0.0;
    double simCycles = 0.0;
    /// "pass" or "fail": exit status combined with the bench's own
    /// verdict from its JSON telemetry (benches without a verdict
    /// report "pass" when they exit 0).
    std::string status = "fail";
    /// Execution tier the child reported ("step"/"block"; "unknown"
    /// when it wrote no record).
    std::string execBackend = "unknown";
    double corruptedRestores = 0.0;
    double crcRejects = 0.0;
    double retriesExhausted = 0.0;
    /// Quantum-loop telemetry: running, coalesced, fused and sleeping
    /// quanta.
    double quanta = 0.0;
    double coalescedQuanta = 0.0;
    double fusedQuanta = 0.0;
    double sleepQuanta = 0.0;
    bool ok = false;
};

std::string
dirName(const std::string& path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/**
 * Run one figure binary with telemetry redirected to `jsonPath`.
 * Returns the child's wall time in seconds, or a negative value when
 * the child failed.
 */
double
runFigure(const std::string& binary, const std::string& jsonPath,
          int threads, const std::string& extraArgs = "")
{
    std::string cmd = "GECKO_THREADS=" + std::to_string(threads) +
                      " GECKO_BENCH_JSON='" + jsonPath + "' '" + binary +
                      "'" + extraArgs + " > /dev/null";
    auto t0 = std::chrono::steady_clock::now();
    int rc = std::system(cmd.c_str());
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();
    return rc == 0 ? wall : -wall;
}

/**
 * Render the suite aggregate from the figures finished so far.
 * `forceStatus` overrides the pass/fail verdict (the signal-flush
 * path stamps "interrupted" so a partial aggregate is never mistaken
 * for a completed run).
 */
std::string
renderSuiteJson(const std::vector<FigureResult>& results, int threads,
                const std::string& forceStatus)
{
    double totalWall = 0.0, totalSerial = 0.0, totalCycles = 0.0;
    double totalCorrupted = 0.0, totalCrcRejects = 0.0,
           totalRetriesExhausted = 0.0;
    double totalQuanta = 0.0, totalCoalesced = 0.0, totalFused = 0.0,
           totalSleep = 0.0;
    int failures = 0;
    for (const FigureResult& r : results) {
        if (r.status != "pass")
            ++failures;
        totalWall += r.wallS;
        totalSerial += r.serialWallS;
        totalCycles += r.simCycles;
        totalCorrupted += r.corruptedRestores;
        totalCrcRejects += r.crcRejects;
        totalRetriesExhausted += r.retriesExhausted;
        totalQuanta += r.quanta;
        totalCoalesced += r.coalescedQuanta;
        totalFused += r.fusedQuanta;
        totalSleep += r.sleepQuanta;
    }

    // One backend name for the whole suite when every child agrees
    // (the usual case: children inherit GECKO_EXEC); "mixed" otherwise.
    // Children without telemetry ("unknown" — static tables that never
    // simulate) don't break uniformity.
    std::string suiteBackend = "unknown";
    for (const FigureResult& r : results) {
        if (r.execBackend == "unknown")
            continue;
        if (suiteBackend == "unknown")
            suiteBackend = r.execBackend;
        else if (r.execBackend != suiteBackend)
            suiteBackend = "mixed";
    }

    unsigned hw = std::thread::hardware_concurrency();
    std::ostringstream os;
    os << "{\"schema_version\":" << gecko::metrics::kBenchSchemaVersion
       << ",\"suite\":\"gecko-bench\",\"exec_backend\":\""
       << gecko::metrics::jsonEscape(suiteBackend)
       << "\",\"threads\":" << threads
       << ",\"host_cores\":" << (hw >= 1 ? hw : 1)
       << ",\"total_wall_s\":" << gecko::metrics::fmt(totalWall, 3);
    if (totalSerial > 0)
        os << ",\"total_serial_wall_s\":"
           << gecko::metrics::fmt(totalSerial, 3) << ",\"speedup\":"
           << gecko::metrics::fmt(totalSerial / totalWall, 3);
    os << ",\"total_sim_cycles\":"
       << static_cast<std::uint64_t>(totalCycles)
       << ",\"sim_cycles_per_s\":"
       << gecko::metrics::fmt(
              totalWall > 0 ? totalCycles / totalWall : 0.0, 0)
       << ",\"total_quanta\":" << static_cast<std::uint64_t>(totalQuanta)
       << ",\"total_sleep_quanta\":"
       << static_cast<std::uint64_t>(totalSleep)
       << ",\"total_coalesced_quanta\":"
       << static_cast<std::uint64_t>(totalCoalesced)
       << ",\"total_fused_quanta\":"
       << static_cast<std::uint64_t>(totalFused)
       << ",\"quanta_per_s\":"
       << gecko::metrics::fmt(
              totalWall > 0 ? totalQuanta / totalWall : 0.0, 0)
       << ",\"failures\":" << failures << ",\"status\":\""
       << (forceStatus.empty() ? (failures == 0 ? "pass" : "fail")
                               : forceStatus.c_str())
       << "\",\"corrupted_restores\":"
       << static_cast<std::uint64_t>(totalCorrupted)
       << ",\"crc_rejects\":"
       << static_cast<std::uint64_t>(totalCrcRejects)
       << ",\"retries_exhausted\":"
       << static_cast<std::uint64_t>(totalRetriesExhausted)
       << ",\"figures\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const FigureResult& r = results[i];
        if (i)
            os << ",";
        os << "{\"figure\":\"" << gecko::metrics::jsonEscape(r.figure)
           << "\",\"schema_version\":" << r.schemaVersion
           << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"status\":\""
           << gecko::metrics::jsonEscape(r.status)
           << "\",\"wall_s\":" << gecko::metrics::fmt(r.wallS, 3);
        if (r.serialWallS > 0)
            os << ",\"serial_wall_s\":"
               << gecko::metrics::fmt(r.serialWallS, 3) << ",\"speedup\":"
               << gecko::metrics::fmt(
                      r.wallS > 0 ? r.serialWallS / r.wallS : 0.0, 3);
        os << ",\"sim_cycles\":"
           << static_cast<std::uint64_t>(r.simCycles)
           << ",\"sim_cycles_per_s\":"
           << gecko::metrics::fmt(
                  r.wallS > 0 ? r.simCycles / r.wallS : 0.0, 0)
           << ",\"quanta\":" << static_cast<std::uint64_t>(r.quanta)
           << ",\"sleep_quanta\":"
           << static_cast<std::uint64_t>(r.sleepQuanta)
           << ",\"coalesced_quanta\":"
           << static_cast<std::uint64_t>(r.coalescedQuanta)
           << ",\"fused_quanta\":"
           << static_cast<std::uint64_t>(r.fusedQuanta)
           << ",\"exec_backend\":\""
           << gecko::metrics::jsonEscape(r.execBackend)
           << "\",\"corrupted_restores\":"
           << static_cast<std::uint64_t>(r.corruptedRestores)
           << ",\"crc_rejects\":"
           << static_cast<std::uint64_t>(r.crcRejects)
           << ",\"retries_exhausted\":"
           << static_cast<std::uint64_t>(r.retriesExhausted) << "}";
    }
    os << "]}";
    return os.str();
}

/** Shared with the signal watcher (guarded by `mutex`). */
struct SuiteState {
    std::mutex mutex;
    std::vector<FigureResult> results;
    std::string outPath = "BENCH_sweeps.json";
    int threads = 1;
};

SuiteState&
suiteState()
{
    static SuiteState s;
    return s;
}

/**
 * SIGINT/SIGTERM → write the aggregate of whatever figures completed,
 * stamped "interrupted", then die with the conventional 128+sig.
 * Runs on the sigwait watcher thread, so taking the mutex and doing
 * file I/O here is safe.
 */
void
flushSuiteAndExit(int sig)
{
    SuiteState& st = suiteState();
    std::lock_guard<std::mutex> lock(st.mutex);
    std::ofstream out(st.outPath);
    if (out) {
        out << renderSuiteJson(st.results, st.threads, "interrupted")
            << "\n";
        // _Exit skips destructors: flush the stream by hand or the
        // partial aggregate dies in the ofstream buffer.
        out.close();
    }
    std::_Exit(128 + sig);
}

}  // namespace

int
main(int argc, char** argv)
{
    bool baseline = false;
    bool quick = false;
    std::string outPath = "BENCH_sweeps.json";
    int threads = gecko::exp::ThreadPool::defaultThreads();
    std::vector<std::string> figures;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--baseline") {
            baseline = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = std::max(1, std::atoi(arg.c_str() + 10));
        } else if (arg.rfind("--out=", 0) == 0) {
            outPath = arg.substr(6);
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        } else {
            figures.push_back(arg);
        }
    }
    if (figures.empty())
        figures = kFigures;
    if (quick)
        baseline = false;

    const std::string binDir = dirName(argv[0]);
    const std::string tmpDir = binDir + "/bench_json";
    std::system(("mkdir -p '" + tmpDir + "'").c_str());

    suiteState().outPath = outPath;
    suiteState().threads = threads;
    gecko::bench::detail::watchSignals(flushSuiteAndExit);

    std::vector<FigureResult> results;
    double totalWall = 0.0, totalSerial = 0.0;
    int failures = 0;

    for (const std::string& fig : figures) {
        const std::string binary = binDir + "/" + fig;
        const std::string jsonPath = tmpDir + "/" + fig + ".json";

        FigureResult r;
        r.figure = fig;
        // Drop any stale record so a child that writes no telemetry
        // (or dies before writing) can't inherit a previous run's.
        std::remove(jsonPath.c_str());
        std::cerr << "[bench_all] " << fig << " (threads=" << threads
                  << ") ... " << std::flush;
        // The campaign driver writes a durable work directory; keep it
        // inside the suite scratch area and start it clean (resume
        // semantics are the kill-resume oracle's job, not the suite's).
        std::string extraArgs;
        // The quick pass doubles as a freshness check on the example
        // scenario spec: the fault campaign is driven from the file the
        // docs point at, so a stale spec fails the suite, not a user.
        if (fig == "fault_campaign" && quick)
            extraArgs =
                " --spec='" GECKO_EXAMPLES_DIR "/emi_grid_spec.json'";
        if (fig == "campaign_runner") {
            extraArgs = " --fresh --dir='" + tmpDir + "/campaign_out'";
            if (quick)
                extraArgs += " --quick";
        }
        if (fig == "fig_adversarial") {
            extraArgs =
                " --fresh --dir='" + tmpDir + "/adversarial_out'";
            if (quick)
                extraArgs += " --quick";
        }
        double wall = runFigure(binary, jsonPath, threads, extraArgs);
        r.ok = wall >= 0;
        r.wallS = std::abs(wall);
        std::cerr << gecko::metrics::fmt(r.wallS, 2) << "s"
                  << (r.ok ? "" : " FAILED") << "\n";

        // The child record is a one-line journal: a missing, torn or
        // unparseable one reads as a failure, like a dead child; a
        // child without a verdict passes by its exit status.
        gecko::metrics::readJsonl(jsonPath, [&](const auto& child) {
            std::uint64_t schemaVersion = 0;
            if (!child.at("schema_version", &schemaVersion))
                return false;
            r.schemaVersion = static_cast<int>(schemaVersion);
            child.at("sim_cycles", &r.simCycles);
            if (!child.at("status", &r.status))
                r.status = "pass";
            child.at("exec_backend", &r.execBackend);
            child.at("corrupted_restores", &r.corruptedRestores);
            child.at("crc_rejects", &r.crcRejects);
            child.at("retries_exhausted", &r.retriesExhausted);
            child.at("quanta", &r.quanta);
            child.at("coalesced_quanta", &r.coalescedQuanta);
            child.at("fused_quanta", &r.fusedQuanta);
            child.at("sleep_quanta", &r.sleepQuanta);
            return true;
        });
        if (!r.ok)
            r.status = "fail";

        if (baseline && r.ok) {
            std::cerr << "[bench_all] " << fig << " (serial) ... "
                      << std::flush;
            double serial = runFigure(binary, jsonPath, 1);
            r.serialWallS = std::abs(serial);
            std::cerr << gecko::metrics::fmt(r.serialWallS, 2) << "s\n";
        }

        if (r.status != "pass")
            ++failures;
        totalWall += r.wallS;
        totalSerial += r.serialWallS;
        results.push_back(r);
        {
            // Mirror progress into the watcher-visible state so an
            // interrupt flushes every completed figure.
            std::lock_guard<std::mutex> lock(suiteState().mutex);
            suiteState().results = results;
        }
    }

    std::string suiteJson;
    {
        std::lock_guard<std::mutex> lock(suiteState().mutex);
        suiteJson = renderSuiteJson(results, threads, "");
    }
    std::ofstream out(outPath);
    if (!out) {
        std::cerr << "[bench_all] cannot write " << outPath << "\n";
        return 1;
    }
    out << suiteJson << "\n";

    std::cerr << "[bench_all] " << results.size() << " figures, "
              << gecko::metrics::fmt(totalWall, 1) << "s wall";
    if (totalSerial > 0)
        std::cerr << ", " << gecko::metrics::fmt(totalSerial, 1)
                  << "s serial -> "
                  << gecko::metrics::fmt(totalSerial / totalWall, 2)
                  << "x speedup";
    std::cerr << " -> " << outPath << "\n";
    if (quick && totalWall > 30.0)
        std::cerr << "[bench_all] WARNING: --quick pass took "
                  << gecko::metrics::fmt(totalWall, 1)
                  << "s (budget 30s)\n";
    return failures == 0 ? 0 : 1;
}
