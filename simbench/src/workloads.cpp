#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "compiler/compile_cache.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "sim/intermittent_sim.hpp"
#include "workloads/workloads.hpp"

#include "probes.hpp"
#include "spans.hpp"

namespace simbench {

using namespace gecko;
namespace fs = std::filesystem;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Run jobs 0..n-1 on a closed loop of `threads` workers: each worker
 * takes the next job when its last job finishes, in the order `order`
 * lists them (input order when it does not list all n).  A job that
 * throws counts as failed with the exception's message.
 * @return per-job host seconds, in input order.
 */
template <class Fn>
std::vector<double>
closedLoop(std::size_t n, int threads, const std::vector<std::size_t>& order,
           std::uint64_t parentSpan, const char* spanName,
           std::vector<std::string>& errors, Fn fn)
{
    std::vector<double> seconds(n, 0.0);
    errors.assign(n, "");
    const bool ordered = order.size() == n;
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t k; (k = next.fetch_add(1)) < n;) {
            const std::size_t i = ordered ? order[k] : k;
            Span job(spanName, parentSpan);
            const auto t0 = Clock::now();
            try {
                fn(i);
            } catch (const std::exception& e) {
                errors[i] = e.what();
            } catch (...) {
                errors[i] = "unknown exception";
            }
            seconds[i] = secondsSince(t0);
        }
    };
    {
        // jthread: every started worker is joined, even if starting a
        // later one throws.
        std::vector<std::jthread> workers;
        workers.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t)
            workers.emplace_back(worker);
    }
    return seconds;
}

/** Fold a closed loop's per-job times and errors into the pass. */
void
noteJobs(PassResult& pass, const std::vector<double>& seconds,
         const std::vector<std::string>& errors, const char* what)
{
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        pass.jobMs.push_back(seconds[i] * 1e3);
        pass.busyS += seconds[i];
        ++pass.attempted;
        if (!errors[i].empty()) {
            ++pass.failed;
            pass.failures.push_back(std::string(what) + " " +
                                    std::to_string(i) + ": " + errors[i]);
        }
    }
}

// ----------------------------------------------------------------------
// One IntermittentSim job (emi_churn, harvest_compute).
// ----------------------------------------------------------------------

struct SimJobOut {
    sim::SimStats sim;
    sim::ExecStats exec;
    runtime::RuntimeStats rt;
    std::uint64_t escalations = 0;
};

struct SimJobSpec {
    std::string workload;
    compiler::Scheme scheme = compiler::Scheme::kNvp;
    const device::DeviceProfile* device = nullptr;
    sim::SimConfig config;
    double simSeconds = 0.0;
    /// Attacker (remote rig at `distanceM`); freqHz == 0 = none.
    double freqHz = 0.0;
    double powerDbm = 0.0;
    double distanceM = 0.1;
};

compiler::CompileCache::Ptr
lookupProgram(const std::string& workload, compiler::Scheme scheme,
              const std::string& cacheDevice)
{
    return compiler::CompileCache::global().getOrCompile(
        compiler::CompileCache::makeKey(workload, scheme, cacheDevice),
        [&] { return compiler::compile(workloads::build(workload), scheme); });
}

template <class MakeHarvester>
SimJobOut
runSimJob(const SimJobSpec& spec, MakeHarvester makeHarvester)
{
    compiler::CompileCache::Ptr compiled;
    {
        Span s("compiler.lookup");
        compiled = lookupProgram(spec.workload, spec.scheme,
                                 spec.device->name);
    }
    // Declared before the simulator, which points at them.
    sim::IoHub io;
    std::unique_ptr<energy::Harvester> harvester;
    std::optional<attack::RemoteRig> rig;
    std::optional<attack::EmiSource> source;
    std::optional<sim::IntermittentSim> simulation;
    {
        Span s("sim.build");
        workloads::setupIo(spec.workload, io);
        harvester = makeHarvester();
        simulation.emplace(*compiled, *spec.device, spec.config, *harvester,
                           io);
        if (spec.freqHz > 0.0) {
            rig.emplace(*spec.device, spec.config.monitorKind,
                        spec.distanceM);
            source.emplace(*rig, spec.freqHz, spec.powerDbm);
            simulation->setEmiSource(&*source);
        }
    }
    {
        Span s("sim.run");
        simulation->run(spec.simSeconds);
    }
    SimJobOut out;
    out.sim = simulation->stats;
    out.exec = simulation->machine().stats;
    out.rt = simulation->geckoRuntime().stats;
    if (const auto* d = simulation->defenseController())
        out.escalations = d->stats().escalations;
    return out;
}

/** Fold one job's simulated counters into the digest and layer sums. */
void
foldSimJob(PassResult& pass, const SimJobOut& o)
{
    const sim::SimStats& s = o.sim;
    const sim::ExecStats& e = o.exec;
    const runtime::RuntimeStats& r = o.rt;
    // Every archived simulated statistic; the quantum-loop diagnostics
    // (quanta, coalesced quanta) are excluded because a faster quantum
    // loop may legitimately change how quanta are fused.
    for (std::uint64_t v :
         {e.instrs, e.cycles, e.ckptStores, e.boundaryCommits, e.completions,
          e.faults, s.reboots, s.hardDeaths, s.backupSignals, s.wakeSignals,
          s.ignoredBackups, s.jitCheckpointAttempts,
          s.jitCheckpointsComplete, s.jitCheckpointsTorn,
          s.jitCheckpointsAborted, s.missedCheckpoints, s.bootCycles,
          r.rollbacks, r.jitRestores, r.corruptedRestores,
          r.attackDetections, r.ackDetections, r.dosDetections,
          r.jitReenables, r.recoveryBlockRuns, r.recoveryInstrRuns,
          r.crcRejects, r.slotRepairs, r.slotUnrecoverable,
          r.ckptSaveRetries, r.retriesExhausted, r.integrityDegradations,
          o.escalations})
        pass.digest = fnvFold(pass.digest, v);

    pass.simCycles += e.cycles;
    LayerMap& l = pass.layer;
    l["sim.quanta"] += static_cast<double>(s.quanta);
    l["sim.stepped_quanta"] += static_cast<double>(s.quanta - s.coalescedQuanta);
    l["machine.instrs"] += static_cast<double>(e.instrs);
    l["machine.cycles"] += static_cast<double>(e.cycles);
    l["jit.attempts"] += static_cast<double>(s.jitCheckpointAttempts);
    l["jit.complete"] += static_cast<double>(s.jitCheckpointsComplete);
    l["jit.torn"] += static_cast<double>(s.jitCheckpointsTorn);
    l["jit.aborted"] += static_cast<double>(s.jitCheckpointsAborted);
    l["energy.reboots"] += static_cast<double>(s.reboots);
    l["energy.hard_deaths"] += static_cast<double>(s.hardDeaths);
    l["energy.backup_signals"] += static_cast<double>(s.backupSignals);
    l["runtime.rollbacks"] += static_cast<double>(r.rollbacks);
    l["runtime.jit_restores"] += static_cast<double>(r.jitRestores);
    l["runtime.corrupted_restores"] +=
        static_cast<double>(r.corruptedRestores);
    l["runtime.crc_rejects"] += static_cast<double>(r.crcRejects);
    l["defense.escalations"] += static_cast<double>(o.escalations);
}

bool
isGecko(compiler::Scheme s)
{
    return s == compiler::Scheme::kGecko || s == compiler::Scheme::kGeckoNoPrune;
}

/** Distinct (workload, scheme) programs of a job list, from the cache. */
std::vector<NamedProgram>
distinctPrograms(const std::vector<SimJobSpec>& jobs)
{
    std::set<std::pair<std::string, int>> seen;
    std::vector<NamedProgram> out;
    for (const SimJobSpec& j : jobs) {
        if (!seen.insert({j.workload, static_cast<int>(j.scheme)}).second)
            continue;
        out.emplace_back(j.workload, lookupProgram(j.workload, j.scheme,
                                                   j.device->name));
    }
    return out;
}

/** Simulator probes shared by the two IntermittentSim workloads. */
void
simProbes(LayerMap& l, const std::vector<SimJobSpec>& jobs,
          const std::vector<RigPoint>& rigs)
{
    const SimJobSpec& ref = jobs.front();
    std::vector<NamedProgram> programs = distinctPrograms(jobs);
    l["machine.ns_per_instr"] =
        probeMachineNsPerInstr(programs, ref.config.memWords);
    const NamedProgram* jitProgram = &programs.front();
    for (const NamedProgram& p : programs)
        if (isGecko(p.second->scheme)) {
            jitProgram = &p;
            break;
        }
    l["jit.ns_per_word"] =
        probeJitNsPerWord(*jitProgram, *ref.device, ref.config.cap,
                          ref.config.jitRamWords, ref.config.memWords);
    l["analog.ns_per_sample"] = probeAnalogNsPerSample(rigs);

    const double runS = l["sim.run_s"];
    if (runS > 0.0) {
        const double words = static_cast<double>(
            ref.config.jitRamWords + static_cast<int>(sim::Nvm::kJitWords));
        l["machine.share"] =
            l["machine.instrs"] * l["machine.ns_per_instr"] * 1e-9 / runS;
        l["jit.share"] =
            l["jit.attempts"] * words * l["jit.ns_per_word"] * 1e-9 / runS;
        l["analog.share"] = l["sim.stepped_quanta"] *
                            l["analog.ns_per_sample"] * 1e-9 / runS;
    }
}

// ----------------------------------------------------------------------
// emi_churn: Table-I style jobs under a continuous tone.
// ----------------------------------------------------------------------

class EmiChurn : public Workload
{
  public:
    explicit EmiChurn(const Options& o) : opt_(o)
    {
        const auto& all = device::DeviceDb::all();
        const std::size_t nDev = o.shortMode ? 2 : all.size();
        const double step = o.shortMode ? 8e6 : 1e6;
        for (std::size_t b = 0; b < nDev; ++b) {
            const device::DeviceProfile& dev = all[b];
            std::vector<analog::MonitorKind> kinds = {analog::MonitorKind::kAdc};
            if (dev.hasComparatorMonitor)
                kinds.push_back(analog::MonitorKind::kComparator);
            for (analog::MonitorKind kind : kinds)
                for (double f = 3e6; f <= 60e6; f += step) {
                    // Frequencies the path does not couple at are no
                    // attack (table1_devices skips them the same way).
                    if (dev.remoteCurve(kind).gainAt(f) < 0.02)
                        continue;
                    for (compiler::Scheme scheme :
                         {compiler::Scheme::kNvp, compiler::Scheme::kGecko}) {
                        SimJobSpec j;
                        j.workload = "sensor_loop";
                        j.scheme = scheme;
                        j.device = &dev;
                        j.config.cap.capacitanceF = 1e-3;
                        j.config.cap.initialV = 3.3;
                        j.config.monitorKind = kind;
                        j.config.monitorSeed =
                            exp::mixSeed(o.seed, jobs_.size());
                        j.simSeconds = o.shortMode ? 0.05 : kSimSeconds;
                        j.freqHz = f;
                        j.powerDbm = 35.0;
                        j.distanceM = 0.1;
                        jobs_.push_back(j);
                    }
                }
        }
    }

    const char* name() const override { return "emi_churn"; }

    PassResult runPass() override
    {
        PassResult pass;
        pass.digest = kFnvBasis;
        std::vector<SimJobOut> outs(jobs_.size());
        std::vector<std::string> errors;
        std::vector<double> seconds;
        {
            Span root("pass", 0);
            pass.rootSpan = root.id();
            const auto t0 = Clock::now();
            seconds = closedLoop(jobs_.size(), opt_.threads, order_, root.id(),
                                 "exp.job", errors, [&](std::size_t i) {
                                     outs[i] = runSimJob(jobs_[i], [] {
                                         return std::make_unique<
                                             energy::SquareWaveHarvester>(
                                             3.3, 5.0, 0.5, 0.5);
                                     });
                                 });
            pass.wallS = secondsSince(t0);
        }
        noteJobs(pass, seconds, errors, "emi_churn job");
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            foldSimJob(pass, outs[i]);
            // The guarded restore rejects every torn or forged image.
            if (isGecko(jobs_[i].scheme) && outs[i].rt.corruptedRestores) {
                ++pass.failed;
                pass.failures.push_back(
                    "emi_churn job " + std::to_string(i) +
                    ": GECKO restored a corrupted checkpoint");
            }
        }
        return pass;
    }

    void probes(LayerMap& l) override
    {
        std::vector<RigPoint> rigs;
        std::set<std::tuple<const void*, int, double>> seen;
        for (const SimJobSpec& j : jobs_) {
            if (!seen.insert({j.device, static_cast<int>(j.config.monitorKind),
                              j.freqHz})
                     .second)
                continue;
            rigs.push_back({j.device, j.config.monitorKind, true, j.freqHz,
                            j.powerDbm, j.distanceM});
        }
        simProbes(l, jobs_, rigs);
    }

  protected:
    std::vector<Program> programs() const override
    {
        std::vector<Program> out;
        std::set<std::pair<std::string, int>> seen;
        for (const SimJobSpec& j : jobs_)
            if (seen.insert({j.device->name, static_cast<int>(j.scheme)})
                    .second)
                out.push_back({j.workload, j.scheme, j.device->name, 0});
        return out;
    }

  private:
    /// Simulated seconds per job: long enough for hundreds of
    /// checkpoint/restore cycles on the 1 Hz square-wave supply.
    static constexpr double kSimSeconds = 1.0;
    Options opt_;
    std::vector<SimJobSpec> jobs_;
};

// ----------------------------------------------------------------------
// harvest_compute: every benchmark x scheme on the RF-trace harvester.
// ----------------------------------------------------------------------

class HarvestCompute : public Workload
{
  public:
    explicit HarvestCompute(const Options& o) : opt_(o)
    {
        const device::DeviceProfile& dev = device::DeviceDb::msp430fr5994();
        std::vector<std::string> names = workloads::benchmarkNames();
        if (o.shortMode)
            names.resize(3);
        traceSeed_ = static_cast<unsigned>(exp::mixSeed(o.seed, 0x7ace));
        for (const std::string& name : names)
            for (compiler::Scheme scheme :
                 {compiler::Scheme::kNvp, compiler::Scheme::kRatchet,
                  compiler::Scheme::kGeckoNoPrune, compiler::Scheme::kGecko}) {
                SimJobSpec j;
                j.workload = name;
                j.scheme = scheme;
                j.device = &dev;
                j.config.cap.capacitanceF = 1e-3;
                j.config.monitorSeed = exp::mixSeed(o.seed, jobs_.size());
                j.simSeconds = o.shortMode ? 0.3 : kSimSeconds;
                jobs_.push_back(j);
            }
    }

    const char* name() const override { return "harvest_compute"; }

    PassResult runPass() override
    {
        PassResult pass;
        pass.digest = kFnvBasis;
        std::vector<SimJobOut> outs(jobs_.size());
        std::vector<std::string> errors;
        std::vector<double> seconds;
        {
            Span root("pass", 0);
            pass.rootSpan = root.id();
            const auto t0 = Clock::now();
            seconds = closedLoop(
                jobs_.size(), opt_.threads, order_, root.id(), "exp.job",
                errors,
                [&](std::size_t i) {
                    const double simS = jobs_[i].simSeconds;
                    outs[i] = runSimJob(jobs_[i], [&] {
                        return std::make_unique<energy::TraceHarvester>(
                            energy::makeRfTrace(3.3, 5.0, 1.0, 0.55, simS,
                                                traceSeed_));
                    });
                });
            pass.wallS = secondsSince(t0);
        }
        noteJobs(pass, seconds, errors, "harvest_compute job");
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            foldSimJob(pass, outs[i]);
            if (isGecko(jobs_[i].scheme) && outs[i].rt.corruptedRestores) {
                ++pass.failed;
                pass.failures.push_back(
                    "harvest_compute job " + std::to_string(i) +
                    ": GECKO restored a corrupted checkpoint");
            }
        }
        return pass;
    }

    void probes(LayerMap& l) override
    {
        simProbes(l, jobs_,
                  {{jobs_.front().device, analog::MonitorKind::kAdc, false,
                    0.0, 0.0, 0.1}});
    }

  protected:
    std::vector<Program> programs() const override
    {
        std::vector<Program> out;
        for (const SimJobSpec& j : jobs_)
            out.push_back({j.workload, j.scheme, j.device->name, 0});
        return out;
    }

  private:
    /// Simulated seconds per job: several outages of the ~1 Hz trace.
    static constexpr double kSimSeconds = 8.0;
    Options opt_;
    unsigned traceSeed_ = 1;
    std::vector<SimJobSpec> jobs_;
};

// ----------------------------------------------------------------------
// campaign_resume: fresh (capped), resume, and recover-only phases.
// ----------------------------------------------------------------------

/**
 * Per-job host time inside campaign::runCampaign, seen only through
 * the engine's public hooks: a job starts at EngineConfig::beforeJob
 * and ends at the shard's next stopRequested poll, which the engine
 * makes between jobs (after the job's journal records).
 */
class JobClock
{
  public:
    void begin(std::uint64_t parentSpan)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lanes_.clear();
        seconds_.clear();
        parent_ = parentSpan;
    }

    void jobStarted()
    {
        const double now = Tracer::instance().now();
        const int lane = Tracer::instance().enabled()
                             ? Tracer::instance().threadLane()
                             : 0;
        std::lock_guard<std::mutex> lock(mutex_);
        Lane& l = lanes_[std::this_thread::get_id()];
        if (l.open)
            close(l, now);
        l.open = true;
        l.start = now;
        l.lastPoll = now;
        l.lane = lane;
    }

    void polled()
    {
        const double now = Tracer::instance().now();
        std::lock_guard<std::mutex> lock(mutex_);
        lanes_[std::this_thread::get_id()].lastPoll = now;
    }

    /** Close every open job; @return per-job seconds of the phase. */
    std::vector<double> end()
    {
        const double now = Tracer::instance().now();
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [id, l] : lanes_)
            if (l.open)
                close(l, now);
        return seconds_;
    }

  private:
    struct Lane {
        bool open = false;
        double start = 0.0;
        double lastPoll = 0.0;
        int lane = 0;
    };

    void close(Lane& l, double now)
    {
        const double end = l.lastPoll > l.start ? l.lastPoll : now;
        seconds_.push_back(end - l.start);
        l.open = false;
        Tracer& t = Tracer::instance();
        if (t.enabled()) {
            SpanRec rec;
            rec.name = "campaign.job";
            rec.id = t.newId();
            rec.parent = parent_;
            rec.lane = l.lane;
            rec.t0 = l.start;
            rec.t1 = end;
            t.record(rec);
        }
    }

    std::mutex mutex_;
    std::map<std::thread::id, Lane> lanes_;
    std::vector<double> seconds_;
    std::uint64_t parent_ = 0;
};

class CampaignResume : public Workload
{
  public:
    explicit CampaignResume(const Options& o)
        : opt_(o), pool_(o.threads)
    {
        campaign::CampaignSpace& sp = base_.space;
        sp.workloads = {"crc16"};
        if (!o.shortMode) {
            sp.workloads = workloads::benchmarkNames();
            sp.workloads.push_back("sensor_loop");
        }
        sp.schemes = {compiler::Scheme::kNvp, compiler::Scheme::kGecko};
        campaign::Scenario clean;
        clean.kind = campaign::ScenarioKind::kClean;
        clean.freqHz = 0.0;
        clean.powerDbm = 0.0;
        campaign::Scenario tone;
        tone.kind = campaign::ScenarioKind::kTone;
        campaign::Scenario burst;
        burst.kind = campaign::ScenarioKind::kBurst;
        sp.scenarios = {clean, tone, burst};
        sp.defenses = {"static", "adaptive"};
        const int seeds = o.shortMode ? 1 : 4;
        for (int s = 0; s < seeds; ++s)
            sp.seeds.push_back(exp::mixSeed(o.seed, 0x5eed + s));
        sp.simSeconds = 0.25;
        sp.sliceSimSeconds = 0.05;
        base_.seed = exp::mixSeed(o.seed, 0xca);
        fs::create_directories(o.scratchDir);
    }

    const char* name() const override { return "campaign_resume"; }

    std::string writesTo() const override { return opt_.scratchDir; }

    PassResult runPass() override
    {
        PassResult pass;
        const std::string dir =
            opt_.scratchDir + "/campaign_" + std::to_string(passNo_++);
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::uint64_t total = base_.space.jobCount();

        campaign::EngineReport a, b, c;
        {
            Span root("pass", 0);
            pass.rootSpan = root.id();
            const auto t0 = Clock::now();
            // A: a fresh run stopped once half the jobs have started;
            // jobs still in flight snapshot mid-job and stay pending.
            a = phase(pass, dir, "campaign.fresh", "campaign.fresh_s",
                      total / 2);
            // B: resume to completion (journal recovery, requeue,
            // snapshot restore).
            b = phase(pass, dir, "campaign.resume", "campaign.resume_s", 0);
            // C: rerun on the finished directory: recovery and
            // aggregation only.
            c = phase(pass, dir, "campaign.recover", "campaign.recover_s", 0);
            pass.wallS = secondsSince(t0);
        }

        pass.attempted = total;
        pass.failed = b.jobsQuarantined;
        if (!b.complete)
            pass.failures.push_back("campaign_resume: incomplete after "
                                    "resume");
        if (b.jobsQuarantined)
            pass.failures.push_back("campaign_resume: " +
                                    std::to_string(b.jobsQuarantined) +
                                    " jobs quarantined");
        if (b.aggregateJson != c.aggregateJson)
            pass.failures.push_back("campaign_resume: fresh+resume "
                                    "aggregate differs from the recovered "
                                    "one");
        if (a.jobsDone >= total)
            pass.failures.push_back("campaign_resume: phase A was not "
                                    "capped");

        foldResults(pass, dir, total);
        LayerMap& l = pass.layer;
        l["campaign.requeued"] = static_cast<double>(b.jobsRequeued);
        l["campaign.resumed_from_snapshot"] =
            static_cast<double>(b.resumedFromSnapshot);
        l["campaign.quarantined"] = static_cast<double>(b.jobsQuarantined);
        std::uint64_t bytes = 0;
        for (const auto& entry : fs::directory_iterator(dir))
            if (entry.is_regular_file())
                bytes += entry.file_size();
        l["campaign.journal_bytes"] = static_cast<double>(bytes);
        fs::remove_all(dir);
        return pass;
    }

    void probes(LayerMap& l) override
    {
        const device::DeviceProfile& dev = device::DeviceDb::msp430fr5994();
        std::vector<NamedProgram> programs;
        for (const std::string& w : base_.space.workloads)
            for (compiler::Scheme s : base_.space.schemes)
                programs.emplace_back(w, lookupProgram(w, s, dev.name));
        l["machine.ns_per_instr"] = probeMachineNsPerInstr(programs, 4096);
        // The engine's job configuration: 20 uF, 64 SRAM words.
        energy::CapacitorConfig cap;
        cap.capacitanceF = 20e-6;
        cap.initialV = 3.3;
        l["jit.ns_per_word"] =
            probeJitNsPerWord(programs.back(), dev, cap, 64, 4096);
        l["analog.ns_per_sample"] = probeAnalogNsPerSample(
            {{&dev, analog::MonitorKind::kAdc, true, 27e6, 35.0, 0.5},
             {&dev, analog::MonitorKind::kAdc, false, 0.0, 0.0, 0.5}});
    }

  protected:
    std::vector<Program> programs() const override
    {
        std::vector<Program> out;
        for (const std::string& d : base_.space.devices)
            for (const std::string& w : base_.space.workloads)
                for (compiler::Scheme s : base_.space.schemes)
                    out.push_back({w, s, d, 0});
        return out;
    }

  private:
    campaign::EngineReport phase(PassResult& pass, const std::string& dir,
                                 const char* spanName, const char* metric,
                                 std::uint64_t cap)
    {
        Span span(spanName);
        const auto t0 = Clock::now();
        std::atomic<std::uint64_t> started{0};
        campaign::EngineConfig config = base_;
        config.dir = dir;
        config.maxJobsThisRun = cap;
        config.beforeJob = [&](std::uint64_t) {
            ++started;
            clock_.jobStarted();
        };
        config.stopRequested = [&] {
            clock_.polled();
            return cap != 0 && started.load() >= cap;
        };
        clock_.begin(span.id());
        campaign::EngineReport report = campaign::runCampaign(config, pool_);
        for (double s : clock_.end()) {
            pass.jobMs.push_back(s * 1e3);
            pass.busyS += s;
        }
        pass.layer[metric] += secondsSince(t0);
        return report;
    }

    /** Digest and layer counts from the journaled results, in job order. */
    void foldResults(PassResult& pass, const std::string& dir,
                     std::uint64_t total)
    {
        std::vector<campaign::JobResult> results;
        std::ifstream in(dir + "/results.jsonl");
        std::string line;
        campaign::Aggregator agg(total);
        while (std::getline(in, line))
            if (auto r = campaign::JobResult::fromJsonl(line))
                if (agg.add(*r))
                    results.push_back(*r);
        std::sort(results.begin(), results.end(),
                  [](const auto& x, const auto& y) { return x.job < y.job; });
        pass.digest = kFnvBasis;
        for (const campaign::JobResult& r : results)
            for (std::uint64_t v :
                 {r.job, r.slices, r.instrs, r.cycles, r.completions,
                  r.reboots, r.hardDeaths, r.backupSignals, r.ckptAttempts,
                  r.ckptComplete, r.ckptTorn, r.missedCkpts, r.rollbacks,
                  r.corruptedRestores, r.crcRejects, r.retriesExhausted,
                  r.escalations, r.deEscalations, r.commits})
                pass.digest = fnvFold(pass.digest, v);
        if (results.size() != total)
            pass.failures.push_back("campaign_resume: " +
                                    std::to_string(results.size()) + " of " +
                                    std::to_string(total) +
                                    " results journaled");

        LayerMap& l = pass.layer;
        for (const auto& [group, g] : agg.groups()) {
            pass.simCycles += g.cycles;
            l["campaign.slices"] += static_cast<double>(g.slices);
            l["machine.instrs"] += static_cast<double>(g.instrs);
            l["machine.cycles"] += static_cast<double>(g.cycles);
            l["jit.attempts"] += static_cast<double>(g.ckptAttempts);
            l["jit.complete"] += static_cast<double>(g.ckptComplete);
            l["jit.torn"] += static_cast<double>(g.ckptTorn);
            l["energy.reboots"] += static_cast<double>(g.reboots);
            l["energy.hard_deaths"] += static_cast<double>(g.hardDeaths);
            l["energy.backup_signals"] += static_cast<double>(g.backupSignals);
            l["runtime.rollbacks"] += static_cast<double>(g.rollbacks);
            l["runtime.corrupted_restores"] +=
                static_cast<double>(g.corruptedRestores);
            l["runtime.crc_rejects"] += static_cast<double>(g.crcRejects);
            l["defense.escalations"] += static_cast<double>(g.escalations);
        }
    }

    Options opt_;
    exp::ThreadPool pool_;
    campaign::EngineConfig base_;
    JobClock clock_;
    std::uint64_t passNo_ = 0;
};

// ----------------------------------------------------------------------
// fault_sweep: complete fault campaigns (cases, minimisation, corpus).
// ----------------------------------------------------------------------

class FaultSweep : public Workload
{
  public:
    explicit FaultSweep(const Options& o) : opt_(o), pool_(1)
    {
        const int campaigns = o.shortMode ? 4 : kCampaigns;
        for (int j = 0; j < campaigns; ++j) {
            fault::CampaignConfig c;
            c.seed = exp::mixSeed(o.seed, 0xfa0 + j);
            c.cases = o.shortMode ? kGridCases : kCasesPerCampaign;
            // Pinned explicitly: the library's default reads
            // GECKO_WATCHDOG from the environment.
            c.watchdogBudget = 400000;
            // One minimised case per (workload, scheme, injector) group:
            // with the library's 4, how many cases a seed happened to
            // fail in each group moved the serial minimisation cost by
            // tens of percent between seeds.
            c.corpusPerGroup = 1;
            c.pool = &pool_;
            configs_.push_back(c);
        }
    }

    const char* name() const override { return "fault_sweep"; }

    void warmOnce() override
    {
        // Golden oracles are computed once per (workload, scheme, level)
        // and cached for the process; build them before timing.
        const fault::CampaignConfig& c = configs_.front();
        for (compiler::Scheme s : c.schemes) {
            for (const std::string& w : c.workloads) {
                fault::CaseSpec spec;
                spec.workload = w;
                spec.scheme = s;
                spec.injector = fault::InjectorKind::kBitFlip;
                spec.seed = 1;
                fault::runCase(spec, c.simTimeBudgetS, c.watchdogBudget);
            }
            fault::CaseSpec spec;
            spec.workload = "sensor_loop";
            spec.scheme = s;
            spec.injector = fault::InjectorKind::kMonitorOffset;
            spec.seed = 1;
            fault::runCase(spec, c.simTimeBudgetS, c.watchdogBudget);
        }
    }

    /**
     * Campaigns run on the closed loop of T workers, each campaign
     * fanning its cases out on a one-thread pool (parallelMap then runs
     * them inline, in order).  A campaign ends in a serial minimisation
     * post-pass whose cost depends on which cases failed; with one
     * campaign fanned over all T threads that post-pass idled the pool
     * and the pass wall followed single stragglers (its spread across
     * seeds was several times the bound).  Side by side, campaigns keep
     * every thread busy and the wall tracks the total work.
     */
    PassResult runPass() override
    {
        PassResult pass;
        pass.digest = kFnvBasis;
        std::vector<fault::CampaignResult> results(configs_.size());
        std::vector<std::string> errors;
        std::vector<double> seconds;
        {
            Span root("pass", 0);
            pass.rootSpan = root.id();
            const auto t0 = Clock::now();
            seconds = closedLoop(configs_.size(), opt_.threads, order_,
                                 root.id(), "fault.campaign", errors,
                                 [&](std::size_t j) {
                                     results[j] =
                                         fault::runCampaign(configs_[j]);
                                 });
            pass.wallS = secondsSince(t0);
        }
        noteJobs(pass, seconds, errors, "fault_sweep campaign");
        pass.layer["fault.campaign0_s"] = seconds.front();
        LayerMap& l = pass.layer;
        for (std::size_t j = 0; j < configs_.size(); ++j) {
            const fault::CampaignResult& r = results[j];
            if (errors[j].empty() && !r.geckoClean) {
                ++pass.failed;
                pass.failures.push_back("fault_sweep campaign " +
                                        std::to_string(j) +
                                        ": a GECKO case was corrupted");
            }
            if (errors[j].empty() && r.nvpCorruptions == 0) {
                ++pass.failed;
                pass.failures.push_back("fault_sweep campaign " +
                                        std::to_string(j) +
                                        ": no NVP case was corrupted");
            }
            for (const fault::CaseResult& c : r.cases)
                for (std::uint64_t v :
                     {static_cast<std::uint64_t>(c.outcome),
                      static_cast<std::uint64_t>(c.injectAt),
                      static_cast<std::uint64_t>(c.word),
                      c.corruptedRestores, c.crcRejects, c.slotRepairs,
                      c.ckptSaveRetries, c.retriesExhausted,
                      c.integrityDegradations, c.defenseEscalations,
                      c.defenseRatchetTrips,
                      static_cast<std::uint64_t>(c.defended)})
                    pass.digest = fnvFold(pass.digest, v);
            for (char ch : r.corpus)
                pass.digest = fnvFold(pass.digest,
                                      static_cast<unsigned char>(ch));
            l["fault.corpus_cases"] += static_cast<double>(r.corpusCases.size());
            l["runtime.corrupted_restores"] +=
                static_cast<double>(r.corruptedRestores);
            l["runtime.crc_rejects"] += static_cast<double>(r.crcRejects);
            l["defense.escalations"] +=
                static_cast<double>(r.defenseEscalations);
        }
        return pass;
    }

    void probes(LayerMap& l) override
    {
        // Every case of the first campaign through runCase on a closed
        // loop of T workers: the cases' own cost, per injector kind.
        const fault::CampaignConfig& c = configs_.front();
        const std::vector<fault::CaseSpec> specs =
            fault::makeCampaignCases(c);
        std::vector<std::string> errors;
        const std::vector<double> seconds = closedLoop(
            specs.size(), opt_.threads, {}, 0, "fault.case", errors,
            [&](std::size_t i) {
                fault::runCase(specs[i], c.simTimeBudgetS, c.watchdogBudget);
            });
        double total = 0.0;
        for (int k = 0; k < fault::kInjectorKinds; ++k)
            l[std::string("fault.cases_s.") +
              fault::injectorName(static_cast<fault::InjectorKind>(k))] = 0.0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            l[std::string("fault.cases_s.") +
              fault::injectorName(specs[i].injector)] += seconds[i];
            total += seconds[i];
        }
        l["fault.cases_s"] = total;
        // Each campaign fans its cases out serially, so what the
        // campaign adds to its cases (minimisation, corpus, report) is
        // its own time minus theirs.
        l["fault.overhead_s"] = l["fault.campaign0_s"] - total;

        const device::DeviceProfile& dev = device::DeviceDb::msp430fr5994();
        std::vector<NamedProgram> programs;
        for (const std::string& w : c.workloads)
            for (compiler::Scheme s : c.schemes)
                programs.emplace_back(w, lookupProgram(w, s, "fault-machine"));
        l["machine.ns_per_instr"] = probeMachineNsPerInstr(programs, 16384);
        // Sim-level cases: 15-30 uF buffers, 4 SRAM words.
        energy::CapacitorConfig cap;
        cap.capacitanceF = 22.5e-6;
        cap.initialV = 3.3;
        l["jit.ns_per_word"] =
            probeJitNsPerWord(programs.back(), dev, cap, 4, 16384);
        l["analog.ns_per_sample"] = probeAnalogNsPerSample(
            {{&dev, analog::MonitorKind::kAdc, true, 27e6, 34.0, 0.5},
             {&dev, analog::MonitorKind::kAdc, false, 0.0, 0.0, 0.5}});
    }

  protected:
    std::vector<Program> programs() const override
    {
        const fault::CampaignConfig& c = configs_.front();
        std::vector<Program> out;
        for (compiler::Scheme s : c.schemes) {
            for (const std::string& w : c.workloads)
                out.push_back({w, s, "fault-machine", 0});
            // Sim-level victims use a tighter region budget.
            out.push_back({"sensor_loop", s, "fault-sim", 8000});
        }
        return out;
    }

  private:
    /// One sweep of the grid: 4 schemes x 27 schedule slots x 3
    /// workloads (the 12 injectors, weighted as the library schedules
    /// them).  Large campaigns fill every failing group, so the corpus
    /// size is a property of the simulator rather than of the seed.
    static constexpr int kGridCases = 4 * 27 * 3;
    static constexpr int kCasesPerCampaign = 16 * kGridCases;
    static constexpr int kCampaigns = 16;
    Options opt_;
    exp::ThreadPool pool_;
    std::vector<fault::CampaignConfig> configs_;
};

}  // namespace

void
Workload::orderLongestFirst(const PassResult& warmup)
{
    const std::vector<double>& ms = warmup.jobMs;
    order_.resize(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i)
        order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) { return ms[a] > ms[b]; });
}

SetupResult
Workload::setup()
{
    SetupResult out;
    compiler::CompileCache& cache = compiler::CompileCache::global();
    cache.clear();
    const auto t0 = Clock::now();
    for (const Program& p : programs()) {
        const auto tb = Clock::now();
        ir::Program prog = workloads::build(p.workload);
        out.buildS += secondsSince(tb);
        const auto tc = Clock::now();
        compiler::PipelineConfig pc;
        if (p.maxRegionCycles)
            pc.maxRegionCycles = static_cast<long>(p.maxRegionCycles);
        cache.getOrCompile(
            compiler::CompileCache::makeKey(p.workload, p.scheme,
                                            p.cacheDevice),
            [&] { return compiler::compile(prog, p.scheme, pc); });
        out.compileS += secondsSince(tc);
        ++out.programs;
    }
    out.seconds = secondsSince(t0);
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const Options& options)
{
    if (name == "emi_churn")
        return std::make_unique<EmiChurn>(options);
    if (name == "harvest_compute")
        return std::make_unique<HarvestCompute>(options);
    if (name == "campaign_resume")
        return std::make_unique<CampaignResume>(options);
    if (name == "fault_sweep")
        return std::make_unique<FaultSweep>(options);
    return nullptr;
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "emi_churn", "harvest_compute", "campaign_resume", "fault_sweep"};
    return names;
}

}  // namespace simbench
