#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "attack/spatial.hpp"
#include "campaign/archive.hpp"
#include "campaign/manifest.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/compile_cache.hpp"
#include "defense/defense.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "metrics/json.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/io_devices.hpp"
#include "workloads/workloads.hpp"

namespace gecko::campaign {

std::uint64_t
CampaignSpace::jobCount() const
{
    std::uint64_t n = 1;
    n *= workloads.size();
    n *= schemes.size();
    n *= devices.size();
    n *= scenarios.size();
    n *= defenses.size();
    n *= seeds.size();
    return n;
}

namespace {

std::uint64_t
fnv1a(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Fixed 17-digit text; it feeds configHash(), so it never changes. */
std::string
hashText(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

}  // namespace

std::uint64_t
CampaignSpace::configHash() const
{
    // Canonical textual description; any knob that changes job
    // semantics must appear here so a stale journal can't silently
    // resume a *different* campaign.
    std::uint64_t h = 14695981039346656037ull;
    for (const auto& w : workloads)
        h = fnv1a(h, "w:" + w + ";");
    for (auto s : schemes)
        h = fnv1a(h, std::string("s:") + compiler::schemeName(s) + ";");
    for (const auto& d : devices)
        h = fnv1a(h, "d:" + d + ";");
    for (const auto& sc : scenarios) {
        h = fnv1a(h, std::string("a:") + scenarioName(sc.kind) + "," +
                         hashText(sc.freqHz) + "," + hashText(sc.powerDbm) +
                         ";");
        // New axes hash only when engaged, so pre-spatial journals keep
        // their hashes and stay resumable.
        if (sc.gridRows > 0)
            h = fnv1a(h, "g:" + std::to_string(sc.gridRows) + "," +
                             std::to_string(sc.gridCols) + "," +
                             std::to_string(sc.gridRow) + "," +
                             std::to_string(sc.gridCol) + ";");
        if (sc.burstCount > 0)
            h = fnv1a(h, "b:" + std::to_string(sc.burstCount) + "," +
                             hashText(sc.burstOnS) + "," +
                             hashText(sc.burstGapS) + ";");
        if (!sc.name.empty())
            h = fnv1a(h, "n:" + sc.name + ";");
        if (sc.dutyPeriodS > 0)
            h = fnv1a(h, "y:" + hashText(sc.dutyPeriodS) + "," +
                             hashText(sc.dutyOnFrac) + ";");
        if (sc.phaseS > 0)
            h = fnv1a(h, "p:" + hashText(sc.phaseS) + ";");
        if (!sc.envelopeDbm.empty()) {
            std::string env = "e:";
            for (double dbm : sc.envelopeDbm)
                env += hashText(dbm) + ",";
            h = fnv1a(h, env + ";");
        }
        if (sc.outagePeriodS > 0)
            h = fnv1a(h, "o:" + hashText(sc.outagePeriodS) + "," +
                             hashText(sc.outageOnFrac) + ";");
    }
    // The defense axis hashes only when engaged (anything beyond the
    // single historical "static" arm), like the scenario axes above.
    if (defenses.size() != 1 || defenses[0] != "static")
        for (const auto& d : defenses)
            h = fnv1a(h, "f:" + d + ";");
    for (auto s : seeds)
        h = fnv1a(h, "r:" + std::to_string(s) + ";");
    h = fnv1a(h, "t:" + hashText(simSeconds) + ";");
    h = fnv1a(h, "q:" + hashText(sliceSimSeconds) + ";");
    return h;
}

std::string
groupKey(const std::string& workload, compiler::Scheme scheme,
         const std::string& scenario, const std::string& defense)
{
    std::string key = workload;
    key += '/';
    key += compiler::schemeName(scheme);
    key += '/';
    key += scenario;
    // The historical single-arm "static" defense stays keyless so old
    // aggregates keep their group names byte-for-byte.
    if (defense != "static") {
        key += '/';
        key += defense;
    }
    return key;
}

std::string
JobSpec::groupKey() const
{
    // Seeds are the replication axis: they aggregate *into* a group,
    // never split one.
    return campaign::groupKey(
        workload, scheme,
        scenario.name.empty() ? scenarioName(scenario.kind) : scenario.name,
        defense);
}

JobSpec
jobAt(const CampaignSpace& space, std::uint64_t id)
{
    JobSpec spec;
    spec.job = id;
    std::uint64_t i = id;
    auto take = [&i](std::size_t radix) {
        std::size_t v = static_cast<std::size_t>(i % radix);
        i /= radix;
        return v;
    };
    spec.seed = space.seeds[take(space.seeds.size())];
    spec.defense = space.defenses[take(space.defenses.size())];
    spec.scenario = space.scenarios[take(space.scenarios.size())];
    spec.device = space.devices[take(space.devices.size())];
    spec.scheme = space.schemes[take(space.schemes.size())];
    spec.workload = space.workloads[take(space.workloads.size())];
    return spec;
}

namespace {

/// Journal fsync cadence (records) of the manifest and results.jsonl.
constexpr std::size_t kJournalSyncEvery = 8;
/// aggregate.json is rewritten every this many new results (and at run
/// end).
constexpr std::uint64_t kCompactEvery = 64;

/** Slice plan: count and per-slice duration (deterministic). */
struct SlicePlan {
    std::uint64_t count = 1;
    double sliceS = 0.0;  // all slices but the last
    double lastS = 0.0;
};

SlicePlan
planSlices(const CampaignSpace& space)
{
    SlicePlan plan;
    if (space.sliceSimSeconds <= 0.0 ||
        space.sliceSimSeconds >= space.simSeconds) {
        plan.count = 1;
        plan.sliceS = plan.lastS = space.simSeconds;
        return plan;
    }
    plan.sliceS = space.sliceSimSeconds;
    plan.count = static_cast<std::uint64_t>(
        std::ceil(space.simSeconds / space.sliceSimSeconds - 1e-9));
    if (plan.count < 1)
        plan.count = 1;
    plan.lastS = space.simSeconds -
                 static_cast<double>(plan.count - 1) * plan.sliceS;
    return plan;
}

std::string
snapshotPath(const std::string& dir, std::uint64_t job)
{
    return dir + "/snap_" + std::to_string(job) + ".bin";
}

/** Outcome of one job attempt (exceptions signal failure). */
struct AttemptOutcome {
    bool interrupted = false;   ///< stop flag observed mid-job
    std::uint64_t slicesDone = 0;
    bool resumedFromSnapshot = false;
    JobResult result;           ///< valid when !interrupted
};

/**
 * Execute one job attempt, resuming from its snapshot if one exists.
 * Jobs always run slice-by-slice with the identical slice plan whether
 * or not anything interrupts them, so the quantum boundaries — and
 * therefore every counter — match an uninterrupted execution exactly.
 */
AttemptOutcome
runJobOnce(const EngineConfig& config, const JobSpec& spec,
           const SlicePlan& plan)
{
    AttemptOutcome out;

    auto compiled = compiler::CompileCache::global().getOrCompile(
        compiler::CompileCache::makeKey(spec.workload, spec.scheme,
                                        spec.device),
        [&] {
            return compiler::compile(workloads::build(spec.workload),
                                     spec.scheme);
        });
    const device::DeviceProfile& dev = device::DeviceDb::byName(spec.device);

    sim::SimConfig simCfg;
    simCfg.continuous = true;
    simCfg.memWords = 4096;
    simCfg.jitRamWords = 64;
    simCfg.bootOverheadCycles = 1000;
    simCfg.cap.capacitanceF = 20e-6;
    simCfg.cap.initialV = 3.3;
    simCfg.monitorSeed = exp::mixSeed(config.seed, spec.seed);
    if (!defense::presetByName(spec.defense, &simCfg.defense))
        throw std::runtime_error("campaign: unknown defense preset \"" +
                                 spec.defense + "\"");

    sim::IoHub io;
    workloads::setupIo(spec.workload, io);
    const Scenario& sc = spec.scenario;
    // Environment: the historical constant supply, or a square-wave
    // outage cycle when the scenario scripts one (so attacks can phase-
    // lock their bursts to harvester outages).
    energy::ConstantHarvester constantSupply(3.3, 5.0);
    energy::SquareWaveHarvester outageSupply(
        3.3, 5.0, sc.outagePeriodS * sc.outageOnFrac,
        sc.outagePeriodS * (1.0 - sc.outageOnFrac));
    energy::Harvester& supply =
        sc.outagePeriodS > 0 ? static_cast<energy::Harvester&>(outageSupply)
                             : constantSupply;
    sim::IntermittentSim simulation(*compiled, dev, simCfg, supply, io);

    // Attack rig lifetime must span the whole run.  A spatial scenario
    // decorates the base rig with its grid cell's coupling and tags the
    // source so carrier-on edges trace the position (kSpatialHit).
    attack::RemoteRig baseRig(dev, simCfg.monitorKind, 0.5);
    const bool spatial = sc.gridRows > 0;
    attack::SpatialGrid grid(spatial ? sc.gridRows : 1,
                             spatial ? sc.gridCols : 1);
    attack::GridRig gridRig(baseRig, grid, spatial ? sc.gridRow : 0,
                            spatial ? sc.gridCol : 0);
    const attack::InjectionRig& rig =
        spatial ? static_cast<const attack::InjectionRig&>(gridRig)
                : baseRig;
    attack::EmiSource source(rig, sc.freqHz, sc.powerDbm);
    if (spatial)
        source.setGridTag(gridRig.cell(), gridRig.couplingMilli(sc.freqHz));
    attack::AttackSchedule schedule{std::vector<attack::AttackWindow>{}};
    if (sc.kind != ScenarioKind::kClean)
        simulation.setEmiSource(&source);
    // Per-window power: the piecewise amplitude envelope cycles over
    // the attack windows; empty = flat powerDbm.
    auto windowPower = [&sc](int w) {
        return sc.envelopeDbm.empty()
                   ? sc.powerDbm
                   : sc.envelopeDbm[static_cast<std::size_t>(w) %
                                    sc.envelopeDbm.size()];
    };
    if (sc.dutyPeriodS > 0 && sc.kind != ScenarioKind::kClean) {
        // Duty-cycled carrier (v2 attack-schedule scripting): on for
        // dutyOnFrac of every period, first window at phaseS.
        const double onS = sc.dutyPeriodS * sc.dutyOnFrac;
        int w = 0;
        for (double t = sc.phaseS; t < config.space.simSeconds;
             t += sc.dutyPeriodS, ++w)
            schedule.add({t, t + onS, sc.freqHz, windowPower(w)});
        simulation.setAttackSchedule(&schedule);
    } else if (sc.kind == ScenarioKind::kBurst) {
        if (sc.burstCount > 0) {
            // Explicit spec-declared windows; phaseS offsets the first
            // (0 keeps the historical gap-led start).
            double t = sc.phaseS > 0
                           ? sc.phaseS
                           : (sc.burstGapS > 0 ? sc.burstGapS : 0.001);
            for (int w = 0; w < sc.burstCount; ++w) {
                schedule.add({t, t + sc.burstOnS, sc.freqHz,
                              windowPower(w)});
                t += sc.burstOnS + sc.burstGapS;
            }
        } else {
            // Seed-derived tone windows (same flavour as the fuzz tier).
            exp::Rng rng(exp::mixSeed(spec.seed, 0xb0057ull));
            double t = 0.0005 * (1 + rng.pick(4));
            int nWindows = 2 + static_cast<int>(rng.pick(3));
            for (int w = 0; w < nWindows; ++w) {
                double on = 0.001 * (1 + rng.pick(5));
                schedule.add({t, t + on, sc.freqHz, sc.powerDbm});
                t += on + 0.001 * (1 + rng.pick(4));
            }
        }
        simulation.setAttackSchedule(&schedule);
    }

    const std::string snapPath = snapshotPath(config.dir, spec.job);
    std::vector<std::uint8_t> blob = readSnapshotFile(snapPath);
    std::uint64_t firstSlice = 0;
    if (!blob.empty()) {
        try {
            Archive ar =
                Archive::loader(openContainer(blob, kSnapshotVersion));
            ar.check(spec.job, "snapshot job id");
            ar.u64(firstSlice);
            simulation.archiveState(ar);
            io.archiveState(ar);
            ar.finishLoad();
            if (firstSlice > plan.count)
                throw SnapshotError("snapshot slice count out of range");
            out.resumedFromSnapshot = true;
        } catch (const SnapshotError&) {
            // Corrupt/foreign snapshot: drop it and start clean — the
            // job is deterministic, so restarting is always safe.
            std::remove(snapPath.c_str());
            firstSlice = 0;
            out.resumedFromSnapshot = false;
            // Rebuild pristine state by re-running the constructor
            // path: the cheapest correct way is to signal the caller
            // to retry this attempt from scratch.
            throw;
        }
    }

    for (std::uint64_t k = firstSlice; k < plan.count; ++k) {
        if (config.stopRequested && config.stopRequested() &&
            plan.count > 1) {
            Archive ar = Archive::saver();
            ar.check(spec.job, "snapshot job id");
            ar.u64(k);
            simulation.archiveState(ar);
            io.archiveState(ar);
            writeSnapshotFile(
                snapPath, sealContainer(kSnapshotVersion, ar.takePayload()));
            out.interrupted = true;
            out.slicesDone = k;
            return out;
        }
        simulation.run(k + 1 == plan.count ? plan.lastS : plan.sliceS);
    }

    JobResult& r = out.result;
    r.job = spec.job;
    r.group = spec.groupKey();
    r.slices = plan.count;
    const sim::ExecStats& ms = simulation.machine().stats;
    r.instrs = ms.instrs;
    r.cycles = ms.cycles;
    r.completions = ms.completions;
    const sim::SimStats& ss = simulation.stats;
    r.reboots = ss.reboots;
    r.hardDeaths = ss.hardDeaths;
    r.backupSignals = ss.backupSignals;
    r.ckptAttempts = ss.jitCheckpointAttempts;
    r.ckptComplete = ss.jitCheckpointsComplete;
    r.ckptTorn = ss.jitCheckpointsTorn;
    r.missedCkpts = ss.missedCheckpoints;
    const runtime::RuntimeStats& rs = simulation.geckoRuntime().stats;
    r.rollbacks = rs.rollbacks;
    r.corruptedRestores = rs.corruptedRestores;
    r.crcRejects = rs.crcRejects;
    r.retriesExhausted = rs.retriesExhausted;
    if (const defense::DefenseController* dc =
            simulation.defenseController()) {
        r.escalations = dc->stats().escalations;
        r.deEscalations = dc->stats().deEscalations;
    }
    r.commits = simulation.nvm().commitCount;
    out.slicesDone = plan.count;
    std::remove(snapPath.c_str());
    return out;
}

/** Everything the shards share. */
struct Shared {
    const EngineConfig* config = nullptr;
    SlicePlan plan;
    std::uint64_t jobsTotal = 0;
    std::uint64_t queueTotal = 0;
    std::uint64_t frontier = 0;
    std::vector<std::uint64_t> requeued;              // const after build
    std::unordered_map<std::uint64_t, std::uint32_t> attemptBase;  // const

    std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> started{0};
    std::atomic<bool> capReached{false};

    // Work a dead shard spilled; drained before fresh chunks.
    std::mutex overflowMutex;
    std::vector<std::uint64_t> overflow;

    // The journal lock serializes manifest/results/aggregate updates.
    std::mutex journalMutex;
    ManifestWriter* manifest = nullptr;
    metrics::JsonlWriter* results = nullptr;
    Aggregator* agg = nullptr;
    std::uint64_t resultsSinceCompact = 0;
    std::uint64_t quarantinedTotal = 0;

    std::atomic<std::uint64_t> attemptsFailed{0};
    std::atomic<std::uint64_t> quarantinedThisRun{0};
    std::atomic<std::uint64_t> resumedFromSnapshot{0};
    std::atomic<std::uint64_t> shardDeaths{0};

    bool stop() const
    {
        return config->stopRequested && config->stopRequested();
    }

    std::uint64_t jobIdAt(std::uint64_t i) const
    {
        if (i < requeued.size())
            return requeued[i];
        return frontier + (i - requeued.size());
    }

    void compactLocked()
    {
        resultsSinceCompact = 0;
        const std::string json = agg->toJson(
            jobsTotal, config->space.configHash(), config->seed);
        std::vector<std::uint8_t> bytes(json.begin(), json.end());
        writeSnapshotFile(config->dir + "/aggregate.json", bytes);
    }
};

/** @return false when the worker should stop claiming work. */
bool
processJob(Shared& sh, std::uint64_t id)
{
    const EngineConfig& config = *sh.config;
    if (config.maxJobsThisRun != 0) {
        if (sh.started.fetch_add(1) >= config.maxJobsThisRun) {
            sh.capReached.store(true);
            return false;
        }
    }
    // Deliberately OUTSIDE per-attempt containment: a throw here is a
    // shard-infrastructure failure, not a job failure (see
    // EngineConfig::beforeJob).
    if (config.beforeJob)
        config.beforeJob(id);

    const JobSpec spec = jobAt(config.space, id);
    std::uint32_t attempt = 0;
    if (auto it = sh.attemptBase.find(id); it != sh.attemptBase.end())
        attempt = it->second;

    while (true) {
        {
            std::lock_guard<std::mutex> lock(sh.journalMutex);
            sh.manifest->append({id, JobState::kRunning, attempt, 0, ""});
        }
        try {
            AttemptOutcome out = runJobOnce(config, spec, sh.plan);
            if (out.resumedFromSnapshot)
                ++sh.resumedFromSnapshot;
            if (out.interrupted) {
                std::lock_guard<std::mutex> lock(sh.journalMutex);
                sh.manifest->append({id, JobState::kRunning, attempt,
                                     out.slicesDone, "interrupted"});
                sh.manifest->sync();
                return false;
            }
            std::lock_guard<std::mutex> lock(sh.journalMutex);
            // Result line FIRST, manifest `done` second: recovery
            // treats the result record as the done-definition, so this
            // order can at worst repeat a job (deduplicated), never
            // lose one.
            sh.results->append(out.result.toJsonl());
            sh.agg->add(out.result);
            sh.manifest->append(
                {id, JobState::kDone, attempt, out.slicesDone, ""});
            if (++sh.resultsSinceCompact >= kCompactEvery) {
                sh.results->sync();
                sh.manifest->sync();
                sh.compactLocked();
            }
            return true;
        } catch (const std::exception& e) {
            ++sh.attemptsFailed;
            std::string note = e.what();
            if (note.size() > 120)
                note.resize(120);
            const bool exhausted =
                attempt + 1 >= static_cast<std::uint32_t>(
                                   std::max(1, config.maxAttempts));
            {
                std::lock_guard<std::mutex> lock(sh.journalMutex);
                sh.manifest->append(
                    {id, JobState::kFailed, attempt, 0, note});
                if (exhausted) {
                    std::string why = "attempts exhausted";
                    if (!config.specPath.empty())
                        why += "; spec=" + config.specPath;
                    sh.manifest->append({id, JobState::kQuarantined,
                                         attempt, 0, why});
                    ++sh.quarantinedTotal;
                }
            }
            if (exhausted) {
                ++sh.quarantinedThisRun;
                std::remove(snapshotPath(config.dir, id).c_str());
                return true;
            }
            ++attempt;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                config.retryBackoffMs * static_cast<int>(attempt)));
        }
    }
}

void
shardWorker(Shared& sh)
{
    const std::uint64_t shardSize = std::max<std::uint64_t>(
        1, sh.config->shardSize);
    // Claimed-but-unprocessed job ids; lives outside the try so the
    // handler can spill it when this shard dies.
    std::vector<std::uint64_t> claimed;
    try {
        while (true) {
            if (sh.stop() || sh.capReached.load())
                return;
            claimed.clear();
            // Drain spilled work from dead shards first.
            {
                std::lock_guard<std::mutex> lock(sh.overflowMutex);
                if (!sh.overflow.empty()) {
                    claimed.push_back(sh.overflow.back());
                    sh.overflow.pop_back();
                }
            }
            if (claimed.empty()) {
                std::uint64_t c = sh.cursor.fetch_add(shardSize);
                if (c >= sh.queueTotal)
                    return;
                std::uint64_t end = std::min(c + shardSize, sh.queueTotal);
                for (std::uint64_t i = c; i < end; ++i)
                    claimed.push_back(sh.jobIdAt(i));
            }
            while (!claimed.empty()) {
                if (sh.stop() || sh.capReached.load())
                    return;
                // The in-flight job stays in `claimed` until it either
                // finishes or is contained, so a shard-killing throw
                // spills it along with the rest.
                bool keepGoing = processJob(sh, claimed.front());
                claimed.erase(claimed.begin());
                if (!keepGoing)
                    return;
            }
        }
    } catch (...) {
        // Shard death: spill the claimed-but-unprocessed remainder so
        // surviving shards pick it up (graceful degradation).  The
        // killer job is spilled too — if it reliably kills shards it
        // will take them all down, and the run ends incomplete rather
        // than wrong.
        ++sh.shardDeaths;
        std::lock_guard<std::mutex> lock(sh.overflowMutex);
        for (std::uint64_t id : claimed)
            sh.overflow.push_back(id);
    }
}

}  // namespace

EngineReport
runCampaign(const EngineConfig& config, exp::ThreadPool& pool)
{
    const CampaignSpace& space = config.space;
    const std::uint64_t total = space.jobCount();
    if (total == 0)
        throw std::runtime_error("campaign: empty job space");

    const std::string manifestPath = config.dir + "/manifest.jsonl";
    const std::string resultsPath = config.dir + "/results.jsonl";

    // ---- Recovery: replay the journal and the result stream. ----
    ManifestRecovery rec = readManifest(manifestPath);
    if (rec.hasHeader) {
        if (rec.totalJobs != total ||
            rec.configHash != space.configHash() || rec.seed != config.seed)
            throw std::runtime_error(
                "campaign: manifest in " + config.dir +
                " belongs to a different campaign (config/seed/job-count "
                "mismatch); refusing to resume");
    }

    Aggregator agg(total);
    std::uint64_t maxResultJob = 0;
    bool sawResult = false;
    const std::uint64_t tornResults =
        metrics::readJsonl(resultsPath, [&](const metrics::JsonValue& v) {
            auto r = JobResult::fromJson(v);
            if (!r)
                return false;
            agg.add(*r);
            maxResultJob = std::max(maxResultJob, r->job);
            sawResult = true;
            return true;
        });

    // Fresh-work frontier: nothing above it was ever touched.
    std::uint64_t frontier = 0;
    if (rec.sawAnyJob)
        frontier = std::max(frontier, rec.maxJob + 1);
    if (sawResult)
        frontier = std::max(frontier, maxResultJob + 1);
    frontier = std::min(frontier, total);

    Shared sh;
    sh.config = &config;
    sh.plan = planSlices(space);
    sh.jobsTotal = total;
    sh.frontier = frontier;
    for (std::uint64_t id = 0; id < frontier; ++id) {
        if (agg.seen(id))
            continue;
        if (rec.stateOf(id) == JobState::kQuarantined) {
            ++sh.quarantinedTotal;
            continue;
        }
        sh.requeued.push_back(id);
        if (auto it = rec.latest.find(id); it != rec.latest.end()) {
            std::uint32_t base = it->second.attempt;
            if (it->second.state == JobState::kFailed)
                ++base;
            if (base > 0)
                sh.attemptBase[id] = base;
        }
    }
    sh.queueTotal =
        static_cast<std::uint64_t>(sh.requeued.size()) + (total - frontier);

    ManifestWriter manifest(manifestPath, kJournalSyncEvery);
    metrics::JsonlWriter results(resultsPath, /*append=*/true,
                                 kJournalSyncEvery);
    if (!manifest.ok() || !results.ok())
        throw std::runtime_error("campaign: cannot open journal files in " +
                                 config.dir);
    if (!rec.hasHeader)
        manifest.header(total, space.configHash(), config.seed);
    sh.manifest = &manifest;
    sh.results = &results;
    sh.agg = &agg;

    // ---- Shards: pool workers + the calling thread. ----
    const int extraShards = std::max(0, pool.threadCount() - 1);
    std::atomic<int> liveShards{extraShards};
    std::mutex doneMutex;
    std::condition_variable doneCv;
    for (int i = 0; i < extraShards; ++i) {
        pool.submit([&sh, &liveShards, &doneMutex, &doneCv] {
            shardWorker(sh);
            // Notify under the mutex: the waiter owns the condvar's
            // storage and destroys it right after its predicate turns
            // true, so the broadcast must complete before the waiter
            // can reacquire the lock and return from wait().
            std::lock_guard<std::mutex> lock(doneMutex);
            --liveShards;
            doneCv.notify_all();
        });
    }
    shardWorker(sh);
    {
        std::unique_lock<std::mutex> lock(doneMutex);
        doneCv.wait(lock, [&] { return liveShards.load() <= 0; });
    }

    // ---- Final compaction + report. ----
    EngineReport report;
    {
        std::lock_guard<std::mutex> lock(sh.journalMutex);
        results.sync();
        manifest.sync();
        sh.compactLocked();
        report.aggregateJson =
            agg.toJson(total, space.configHash(), config.seed);
    }
    report.jobsTotal = total;
    report.jobsDone = agg.jobCount();
    report.attemptsFailed = sh.attemptsFailed.load();
    report.jobsQuarantined = sh.quarantinedTotal;
    report.jobsRequeued = static_cast<std::uint64_t>(sh.requeued.size());
    report.resumedFromSnapshot = sh.resumedFromSnapshot.load();
    report.shardDeaths = sh.shardDeaths.load();
    report.tornManifestLines = rec.tornLines;
    report.tornResultLines = tornResults;
    report.complete = report.jobsDone + report.jobsQuarantined >= total;
    return report;
}

}  // namespace gecko::campaign
