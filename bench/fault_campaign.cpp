#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "fault/campaign.hpp"
#include "fault/corpus.hpp"
#include "fault/injectors.hpp"
#include "fault/spec.hpp"

/**
 * Deterministic fault-injection campaign driver (see src/fault/).
 *
 * Fans (workload x scheme x injector x seed) cases across the thread
 * pool, checks each against its golden fault-free oracle, minimises the
 * failures into a replayable corpus, and prints the per scheme x
 * injector outcome table.  The report and corpus are pure functions of
 * the seed: `GECKO_THREADS=1` and `=8` produce byte-identical bytes.
 *
 * Flags:
 *   --cases=N      grid size (default 5000)
 *   --seed=N       campaign seed (default GECKO_SEED, else 1)
 *   --spec=FILE    declarative scenario spec (src/fault/spec.hpp): its
 *                  `campaign` section overrides cases/workloads/schemes/
 *                  injector mix/budgets.  Seed precedence: a `seed` in
 *                  the spec file wins over GECKO_SEED / --seed; without
 *                  one the ambient seed applies, falling back to 1.
 *   --watchdog=N   machine-level livelock budget in run-loop iterations
 *                  (default 400000)
 *   --threads=N    pool width (default GECKO_THREADS / host cores)
 *   --out=DIR      write DIR/fault_corpus.txt and DIR/fault_report.txt
 *   --replay=FILE  replay a corpus file case-by-case instead of
 *                  running a campaign
 *   --trace=FILE   record per-case event traces (campaign and replay
 *                  alike) and write the merged trace to FILE
 *   --expect-nvp-corruption  exit nonzero unless NVP showed corruption
 *                  (guards the campaign's discriminating power)
 *
 * Exit status: 0 unless a GECKO scheme corrupted, a replayed corpus
 * case no longer fails, or --expect-nvp-corruption was violated.
 */

namespace {

using namespace gecko;

int
replayCorpus(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot read corpus: " << path << "\n";
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::uint64_t campaignSeed = 0;
    std::vector<fault::CorpusEntry> entries;
    try {
        entries = fault::parseCorpus(buf.str(), &campaignSeed);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    std::cout << "# replaying " << entries.size() << " cases from " << path
              << " (campaign seed " << campaignSeed << ")\n";
    int mismatches = 0;
    for (const fault::CorpusEntry& entry : entries) {
        // Same buffer label scheme as the campaign, so a replayed
        // case's events diff cleanly against the campaign trace.
        const std::uint64_t ordinal = static_cast<std::uint64_t>(
            &entry - entries.data());
        trace::CaseScope scope(
            bench::telemetry().collector.get(),
            entry.spec.workload + "|" +
                compiler::schemeName(entry.spec.scheme) + "|" +
                fault::injectorName(entry.spec.injector) + "|" +
                std::to_string(entry.spec.seed),
            ordinal);
        fault::CaseResult res = fault::runCase(entry.spec);
        bool match = res.outcome == entry.outcome;
        if (!match)
            ++mismatches;
        std::cout << fault::formatCorpusLine(res)
                  << (match ? "  [reproduced]" : "  [MISMATCH]") << "\n";
    }
    std::cout << "# replay mismatches=" << mismatches << "\n";
    int rc = bench::writeBenchReport("fault_campaign_replay",
                                     mismatches == 0 ? "pass" : "fail");
    return mismatches == 0 ? rc : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    // ^C / SIGTERM still lands the partial JSON telemetry on disk
    // before the process dies (status "interrupted").
    bench::installSignalFlush("fault_campaign");

    fault::CampaignConfig config;
    config.collector = bench::telemetry().collector.get();
    if (exp::globalSeed() != 0)
        config.seed = exp::globalSeed();
    std::string outDir;
    std::string replayPath;
    std::string specPath;
    bool expectNvpCorruption = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--cases=", 0) == 0)
            config.cases = std::atoi(arg.c_str() + 8);
        else if (arg.rfind("--watchdog=", 0) == 0)
            config.watchdogBudget = std::strtoull(arg.c_str() + 11,
                                                  nullptr, 10);
        else if (arg.rfind("--out=", 0) == 0)
            outDir = arg.substr(6);
        else if (arg.rfind("--replay=", 0) == 0)
            replayPath = arg.substr(9);
        else if (arg.rfind("--spec=", 0) == 0)
            specPath = arg.substr(7);
        else if (arg == "--expect-nvp-corruption")
            expectNvpCorruption = true;
    }
    if (!specPath.empty()) {
        fault::FaultSpec spec;
        std::string error;
        if (!fault::loadSpecFile(specPath, &spec, &error)) {
            std::cerr << error << "\n";
            return 1;
        }
        // Spec seed > GECKO_SEED / --seed > 1 (see resolveSeed).
        fault::applyToCampaign(spec, &config);
        std::cout << "# spec " << specPath << " (seed " << config.seed
                  << ")\n";
    }

    if (!replayPath.empty())
        return replayCorpus(replayPath);

    std::vector<int> one{0};
    fault::CampaignResult result =
        bench::runSweep("fault_campaign", one, [&](int) {
            return fault::runCampaign(config);
        })[0];

    runtime::RuntimeStats agg;
    agg.corruptedRestores = result.corruptedRestores;
    agg.crcRejects = result.crcRejects;
    agg.retriesExhausted = result.retriesExhausted;
    bench::noteRuntimeStats(agg);

    std::cout << result.report;

    bool ok = result.geckoClean;
    if (expectNvpCorruption && result.nvpCorruptions == 0) {
        std::cout << "# FAIL: expected NVP corruption, found none\n";
        ok = false;
    }
    if (!result.geckoClean)
        std::cout << "# FAIL: GECKO corruption cases="
                  << result.geckoCorruptions << "\n";

    if (!outDir.empty()) {
        std::ofstream corpus(outDir + "/fault_corpus.txt");
        corpus << result.corpus;
        std::ofstream report(outDir + "/fault_report.txt");
        report << result.report;
        if (!corpus || !report) {
            std::cerr << "cannot write artifacts under " << outDir << "\n";
            ok = false;
        }
    }

    int jsonRc = bench::writeBenchReport("fault_campaign",
                                         ok ? "pass" : "fail");
    return ok ? jsonRc : 1;
}
