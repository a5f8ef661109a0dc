#include "adversary/optimizer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/engine.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/json.hpp"

namespace gecko::adversary {

namespace {

/** Search-journal state reconstructed from completed-round lines. */
struct SearchState {
    int roundsDone = 0;
    AttackKnobs best;
    std::uint64_t bestScore = 0;
    double stepScale = 0.5;
    bool haveBest = false;
};

std::string
candName(int round, int idx)
{
    std::ostringstream os;
    os << "r" << round << "c" << idx;
    return os.str();
}

/** The candidate set of round `round` given the journaled state.
 *  Depends only on (seed, round, best, stepScale) so an interrupted
 *  round re-derives the identical set — and thus the identical
 *  campaign configHash — on resume. */
std::vector<AttackKnobs>
proposeRound(const SearchConfig& config, const SearchState& st, int round)
{
    exp::Rng rng(exp::mixSeed(config.seed,
                              0xad5e4271ull ^ static_cast<std::uint64_t>(round)));
    std::vector<AttackKnobs> out;
    if (round == 0) {
        // Seeding round: the default center plus random restarts.
        out.push_back(clampKnobs(AttackKnobs{}, config.bounds));
        for (int i = 0; i < std::max(1, config.restarts); ++i)
            out.push_back(randomKnobs(rng, config.bounds));
        return out;
    }
    // Coordinate sweep around the incumbent, both directions per knob.
    for (int c = 0; c < kKnobCount; ++c) {
        out.push_back(perturb(st.best, config.bounds, c, +1, st.stepScale));
        out.push_back(perturb(st.best, config.bounds, c, -1, st.stepScale));
    }
    for (int i = 0; i < config.restarts; ++i)
        out.push_back(randomKnobs(rng, config.bounds));
    return out;
}

std::string
groupKeyFor(const SearchConfig& config, const std::string& scenarioName)
{
    return campaign::groupKey(config.workload, config.scheme, scenarioName,
                              config.defense);
}

/** Build the one-round campaign space: clean baseline + candidates. */
campaign::CampaignSpace
spaceFor(const SearchConfig& config,
         const std::vector<AttackKnobs>& candidates, int round)
{
    campaign::CampaignSpace space;
    space.workloads = {config.workload};
    space.schemes = {config.scheme};
    space.devices = {config.device};
    space.defenses = {config.defense};
    campaign::Scenario clean;
    clean.kind = campaign::ScenarioKind::kClean;
    clean.freqHz = 0.0;
    clean.powerDbm = 0.0;
    clean.outagePeriodS = config.outagePeriodS;
    clean.outageOnFrac = config.outageOnFrac;
    space.scenarios = {clean};
    for (std::size_t i = 0; i < candidates.size(); ++i)
        space.scenarios.push_back(toScenario(
            candidates[i], config.bounds,
            candName(round, static_cast<int>(i)), config.outagePeriodS,
            config.outageOnFrac));
    for (int s = 1; s <= std::max(1, config.seedsPerCandidate); ++s)
        space.seeds.push_back(static_cast<std::uint64_t>(s));
    space.simSeconds = config.simSeconds;
    space.sliceSimSeconds = config.sliceSimSeconds;
    return space;
}

/** Fold a completed round directory's results.jsonl into group totals,
 *  adding every job's simulated cycles to `simCycles`. */
std::map<std::string, campaign::GroupTotals>
foldResults(const std::string& dir, std::uint64_t totalJobs,
            std::uint64_t& simCycles)
{
    campaign::Aggregator agg(totalJobs);
    const auto fold = [&](const metrics::JsonValue& v) {
        auto r = campaign::JobResult::fromJson(v);
        if (r) {
            agg.add(*r);
            simCycles += r->cycles;
        }
        return r.has_value();
    };
    metrics::readJsonl(dir + "/results.jsonl", fold);
    return agg.groups();
}

/** Run one campaign (a search round or the best-eval replay).
 *  @return true when it completed; false = cooperative stop. */
bool
runRoundCampaign(const SearchConfig& config, const std::string& dir,
                 const campaign::CampaignSpace& space,
                 exp::ThreadPool& pool)
{
    std::filesystem::create_directories(dir);
    campaign::EngineConfig ec;
    ec.dir = dir;
    ec.space = space;
    ec.seed = config.seed;
    ec.stopRequested = config.stopRequested;
    campaign::EngineReport report = campaign::runCampaign(ec, pool);
    if (report.jobsQuarantined > 0)
        throw std::runtime_error("adversary: quarantined jobs in " + dir);
    return report.complete;
}

}  // namespace

std::uint64_t
denialScore(const campaign::GroupTotals& clean,
            const campaign::GroupTotals& attacked)
{
    const auto deficit = [](std::uint64_t base, std::uint64_t got) {
        return base > got ? base - got : 0;
    };
    // Progress deficits dominate; the attacked arm's recovery churn
    // breaks ties between equally-denying schedules.  Integer weights
    // keep the objective exactly reproducible.
    std::uint64_t score = 0;
    score += 1000 * deficit(clean.completions, attacked.completions);
    score += 100 * deficit(clean.commits, attacked.commits);
    score += 50 * attacked.rollbacks;
    score += 500 * attacked.retriesExhausted;
    score += 2000 * attacked.hardDeaths;
    return score;
}

SearchReport
runSearch(const SearchConfig& config, exp::ThreadPool& pool)
{
    if (config.dir.empty())
        throw std::runtime_error("adversary: dir required");
    std::filesystem::create_directories(config.dir);
    const std::string journalPath = config.dir + "/search.jsonl";

    // ---- recover journaled state (completed rounds only) ----
    SearchState st;
    metrics::readJsonl(journalPath, [&](const metrics::JsonValue& v) {
        std::string type;
        if (!v.at("type", &type) || type != "round")
            return true;
        std::uint64_t round = 0, score = 0;
        double step = 0;
        AttackKnobs knobs;
        const metrics::JsonValue* best = v.get("best_knobs");
        if (!v.at("round", &round) || !v.at("best_score", &score) ||
            !v.at("step", &step) || !best ||
            !knobsFromJson(*best, &knobs))
            return false;
        st.roundsDone = static_cast<int>(round) + 1;
        st.best = knobs;
        st.bestScore = score;
        st.stepScale = step;
        st.haveBest = true;
        return true;
    });

    const int totalRounds = 1 + std::max(0, config.rounds);
    metrics::JsonlWriter journal(journalPath, /*append=*/true,
                                 /*syncEvery=*/1);
    if (!journal.ok())
        throw std::runtime_error("adversary: cannot open " + journalPath);

    SearchReport out;
    for (int round = st.roundsDone; round < totalRounds; ++round) {
        const std::vector<AttackKnobs> candidates =
            proposeRound(config, st, round);
        const campaign::CampaignSpace space =
            spaceFor(config, candidates, round);
        const std::string dir =
            config.dir + "/round_" + std::to_string(round);
        if (!runRoundCampaign(config, dir, space, pool)) {
            out.roundsDone = st.roundsDone;
            out.best = {st.best, st.bestScore};
            return out;  // cooperative stop; resume later
        }

        const auto groups =
            foldResults(dir, space.jobCount(), out.simCycles);
        const auto cleanIt = groups.find(groupKeyFor(
            config, campaign::scenarioName(campaign::ScenarioKind::kClean)));
        if (cleanIt == groups.end())
            throw std::runtime_error("adversary: clean arm missing in " +
                                     dir);

        // Score every candidate; journal each (the evaluated-candidate
        // record the replay tooling feeds on).
        int bestIdx = -1;
        std::uint64_t bestRoundScore = 0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const auto it = groups.find(groupKeyFor(
                config, candName(round, static_cast<int>(i))));
            const std::uint64_t score =
                it == groups.end()
                    ? 0
                    : denialScore(cleanIt->second, it->second);
            std::ostringstream cl;
            cl << "{\"type\":\"cand\",\"round\":" << round
               << ",\"cand\":" << i << ",\"score\":" << score
               << ",\"knobs\":" << knobsJson(candidates[i]) << "}";
            journal.append(cl.str());
            if (bestIdx < 0 || score > bestRoundScore) {
                bestIdx = static_cast<int>(i);
                bestRoundScore = score;
            }
        }

        // Adopt-or-shrink: a strictly better candidate moves the
        // incumbent and grows the step; a dry round shrinks it (the
        // success-rule step adaptation standing in for a full CMA
        // covariance update).
        if (!st.haveBest || bestRoundScore > st.bestScore) {
            st.best = candidates[static_cast<std::size_t>(bestIdx)];
            st.bestScore = bestRoundScore;
            st.haveBest = true;
            st.stepScale = std::min(1.0, st.stepScale * 1.25);
        } else {
            st.stepScale = std::max(0.05, st.stepScale * 0.6);
        }
        st.roundsDone = round + 1;

        std::ostringstream rl;
        rl << "{\"type\":\"round\",\"round\":" << round
           << ",\"best_score\":" << st.bestScore
           << ",\"step\":" << metrics::numText(st.stepScale)
           << ",\"clean_commits\":" << cleanIt->second.commits
           << ",\"clean_escalations\":" << cleanIt->second.escalations
           << ",\"best_knobs\":" << knobsJson(st.best) << "}";
        journal.append(rl.str());
        journal.sync();
    }

    // ---- standalone best evaluation: the replay contract ----
    // The winner re-runs alone, from the knob state the journal pinned,
    // in its own campaign directory.  Job results depend only on the
    // axis values and the engine seed — not on job ids — so this
    // single-candidate space must reproduce the journaled score
    // exactly.
    const std::string bestName = "best";
    campaign::CampaignSpace evalSpace = spaceFor(config, {}, 0);
    evalSpace.scenarios.push_back(toScenario(
        st.best, config.bounds, bestName, config.outagePeriodS,
        config.outageOnFrac));
    const std::string evalDir = config.dir + "/best_eval";
    if (!runRoundCampaign(config, evalDir, evalSpace, pool)) {
        out.roundsDone = st.roundsDone;
        out.best = {st.best, st.bestScore};
        return out;
    }
    const auto groups =
        foldResults(evalDir, evalSpace.jobCount(), out.simCycles);
    const auto cleanIt = groups.find(groupKeyFor(
        config, campaign::scenarioName(campaign::ScenarioKind::kClean)));
    const auto bestIt = groups.find(groupKeyFor(config, bestName));
    if (cleanIt == groups.end() || bestIt == groups.end())
        throw std::runtime_error("adversary: best_eval arms missing");

    out.complete = true;
    out.roundsDone = st.roundsDone;
    out.best = {st.best, st.bestScore};
    out.cleanTotals = cleanIt->second;
    out.bestTotals = bestIt->second;
    out.replayMatches =
        denialScore(out.cleanTotals, out.bestTotals) == st.bestScore;

    // Serialize the winner as a schema-v2 spec (the durable replay
    // artifact named in EXPERIMENTS.md).
    const fault::FaultSpec spec = toSpec(
        st.best, config.bounds, "best-vs-" + config.defense, config.seed,
        config.device, std::max(1, config.seedsPerCandidate),
        config.simSeconds, config.sliceSimSeconds, config.outagePeriodS,
        config.outageOnFrac);
    out.bestSpecJson = fault::serializeSpec(spec);
    std::ofstream specOut(config.dir + "/best_spec.json",
                          std::ios::trunc);
    specOut << out.bestSpecJson;
    return out;
}

}  // namespace gecko::adversary
