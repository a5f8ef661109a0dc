#ifndef GECKO_CAMPAIGN_ENGINE_HPP_
#define GECKO_CAMPAIGN_ENGINE_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/scenario.hpp"
#include "compiler/pipeline.hpp"
#include "exp/thread_pool.hpp"

/**
 * @file
 * The crash-tolerant campaign engine (DESIGN.md §13).
 *
 * A campaign is a cartesian job space — workload × scheme × attack
 * scenario × seed — executed as independent deterministic simulations.
 * The engine provides the durability layer around that space:
 *
 *  - a resumable manifest (campaign/manifest) journals every job state
 *    transition, so a SIGKILL'd campaign restarts exactly where it
 *    stopped, re-queuing in-flight jobs;
 *  - per-job simulator snapshots (campaign/snapshot) let long jobs
 *    resume mid-simulation at slice granularity;
 *  - work-stealing shards over exp::ThreadPool execute jobs with
 *    retry-with-backoff, poison-job quarantine, and shard-death
 *    degradation (a dead shard's claimed work spills to the others);
 *  - results stream to `results.jsonl` and fold into a deterministic
 *    aggregate (campaign/aggregate) compacted periodically to
 *    `aggregate.json`.
 *
 * Everything that survives into `aggregate.json` is an integer counter
 * summed commutatively, so a killed-and-resumed campaign produces the
 * byte-identical aggregate of an uninterrupted run — the property the
 * kill-and-resume oracle (tests/campaign_kill_resume.sh) enforces.
 */

namespace gecko::campaign {

/** The cartesian job space. */
struct CampaignSpace {
    std::vector<std::string> workloads;
    std::vector<compiler::Scheme> schemes;
    std::vector<std::string> devices = {"MSP430FR5994"};
    std::vector<Scenario> scenarios;
    /// Defense-configuration axis (preset names resolved by
    /// defense::presetByName): "static" = controller off (historical
    /// behaviour), "adaptive" = controller defaults, "strict" =
    /// tightened degraded-entry thresholds.  The default single
    /// "static" entry hashes exactly like the pre-axis space, so old
    /// journals stay resumable.
    std::vector<std::string> defenses = {"static"};
    std::vector<std::uint64_t> seeds;
    /// Simulated seconds per job.
    double simSeconds = 0.05;
    /// Snapshot/stop granularity; <= 0 runs each job as one slice.
    /// Jobs ALWAYS execute slice-by-slice (whether or not a stop or
    /// kill happens) so a resumed job replays the identical quantum
    /// boundaries of an uninterrupted one.
    double sliceSimSeconds = 0.0;

    std::uint64_t jobCount() const;

    /** FNV-1a over the canonical space description (identity guard). */
    std::uint64_t configHash() const;
};

/** One decoded job. */
struct JobSpec {
    std::uint64_t job = 0;
    std::string workload;
    compiler::Scheme scheme = compiler::Scheme::kGecko;
    std::string device;
    Scenario scenario;
    /// Defense preset name ("static" = controller off).
    std::string defense = "static";
    std::uint64_t seed = 0;

    /** Aggregation key: "workload/scheme/scenario[/defense]". */
    std::string groupKey() const;
};

/**
 * Aggregation key "workload/scheme/scenario[/defense]"; the "static"
 * defense adds no segment.
 */
std::string groupKey(const std::string& workload, compiler::Scheme scheme,
                     const std::string& scenario, const std::string& defense);

/** Decode job `id` from the space (mixed-radix; id < jobCount()). */
JobSpec jobAt(const CampaignSpace& space, std::uint64_t id);

/** Engine knobs. */
struct EngineConfig {
    /// Campaign directory: manifest.jsonl, results.jsonl,
    /// aggregate.json, snap_<job>.bin all live here.  Must exist.
    std::string dir;
    CampaignSpace space;
    /// Campaign identity seed (recorded in the manifest header and
    /// mixed into job seeds).
    std::uint64_t seed = 1;
    /// Path of the spec file this campaign was launched from ("" =
    /// flag-driven).  Recorded in quarantine notes so a poisoned
    /// spec-driven job names its spec in the manifest.
    std::string specPath;
    /// Total attempts per job before quarantine.  Only campaign_test
    /// sets this and the next two, to reach quarantine, zero-backoff
    /// retries and one-job shards.
    int maxAttempts = 3;
    /// Linear retry backoff unit (attempt n sleeps n * this).
    int retryBackoffMs = 1;
    /// Jobs a shard claims per cursor bump (work-stealing granule).
    std::uint64_t shardSize = 16;
    /// Cap on jobs *started* this run (0 = no cap); the rest stay
    /// pending for a later resume.  Lets tests/drivers make bounded
    /// progress deliberately.
    std::uint64_t maxJobsThisRun = 0;
    /// Cooperative stop (signal flag): checked between jobs and
    /// between slices.  A mid-job stop snapshots and journals progress
    /// without consuming an attempt.
    std::function<bool()> stopRequested;
    /// Test hook: runs on the shard thread before each job's attempt
    /// loop.  A throw here is OUTSIDE per-job containment and kills
    /// the shard — exercised by the shard-death degradation test.
    std::function<void(std::uint64_t job)> beforeJob;
};

/** What one run() accomplished. */
struct EngineReport {
    std::uint64_t jobsTotal = 0;
    /// Jobs with a result record after this run (includes prior runs).
    std::uint64_t jobsDone = 0;
    /// Failed attempts observed this run.
    std::uint64_t attemptsFailed = 0;
    std::uint64_t jobsQuarantined = 0;
    /// In-flight/failed jobs re-queued during recovery.
    std::uint64_t jobsRequeued = 0;
    /// Requeued jobs that resumed from a mid-job snapshot.
    std::uint64_t resumedFromSnapshot = 0;
    /// Shards that died; their claimed work spilled to the others.
    std::uint64_t shardDeaths = 0;
    /// Torn journal lines dropped during recovery.
    std::uint64_t tornManifestLines = 0;
    std::uint64_t tornResultLines = 0;
    /// Every job done or quarantined.
    bool complete = false;
    /// The deterministic aggregate (also compacted to aggregate.json).
    std::string aggregateJson;
};

/**
 * Run (or resume) the campaign in `config.dir` on `pool`.  The calling
 * thread participates as a shard.  Throws std::runtime_error when the
 * directory holds a manifest for a *different* campaign (config-hash /
 * seed / job-count mismatch) — resuming someone else's journal would
 * silently corrupt the aggregate.
 */
EngineReport runCampaign(const EngineConfig& config, exp::ThreadPool& pool);

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_ENGINE_HPP_
