#include "sim/intermittent_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "campaign/archive.hpp"
#include "exp/rng.hpp"
#include "trace/trace.hpp"

namespace gecko::sim {

using compiler::Scheme;

namespace {

constexpr std::uint64_t kNoCompletionTarget = ~std::uint64_t{0};
/// Cadence at which a bounded run polls its completion target — the
/// stop granularity of the historical sliced driver, kept so bounded
/// runs settle identically.
constexpr double kCompletionPollS = 0.01;

/** Voltage in integer millivolt for trace payloads (clamped at 0). */
[[maybe_unused]] std::uint64_t
traceMv(double v)
{
    return v > 0 ? static_cast<std::uint64_t>(std::llround(v * 1000.0)) : 0;
}

/**
 * Resolve the coalescing burst limit: explicit config wins, then
 * GECKO_COALESCE (0 or 1 = off), default 64 quanta — one coarse
 * quiet-stride burst.
 */
int
resolveCoalesceLimit(int configured)
{
    int limit = configured;
    if (limit < 0) {
        limit = 64;
        if (const char* env = std::getenv("GECKO_COALESCE"))
            limit = std::atoi(env);
    }
    return std::clamp(limit, 0, 1 << 16);
}

/**
 * The shadow monitor's view of a sample spanning [lo, hi]: a continuous
 * monitor sees the envelope, a sampling one the midpoint.
 */
analog::MonitorEvent
shadowView(analog::VoltageMonitor& shadow, double lo, double hi)
{
    if (shadow.continuous() && hi > lo)
        return shadow.observeEnvelope(lo, hi);
    return shadow.observe(0.5 * (lo + hi));
}

/**
 * The fast paths' per-sample defense policy without a controller: every
 * hook is constant, so the undefended instantiations of coalescedRun
 * and fusedQuanta compile to the plain loops.
 */
struct NoDefense {
    NoDefense probe() const { return *this; }
    void adopt(const NoDefense&) const {}
    bool quietSample(double, double) const { return true; }
    bool shadowQuiet(double, double) const { return true; }
    void attackedSample(double, double, double,
                        const analog::MonitorEvent&) const
    {
    }
};

/** A copy of the controller the coalescing proof marches ahead on. */
struct ControllerProbe {
    defense::DefenseController controller;
    bool quietSample(double t, double v)
    {
        return controller.stepSample(t, v, v, {}, {});
    }
};

/**
 * The per-sample policy with a controller attached: the shadow monitor
 * and the controller's inline step.  A sample that would take a
 * transition goes to observeSample out of line.
 */
struct Defense {
    defense::DefenseController& controller;
    analog::VoltageMonitor& shadow;

    ControllerProbe probe() const { return ControllerProbe{controller}; }

    /// Commit a probe that marched exactly the committed quanta.
    void adopt(const ControllerProbe& probe) const
    {
        controller = probe.controller;
    }

    /// The skipped shadow observations over [lo, hi] are no-ops.
    bool shadowQuiet(double lo, double hi) const
    {
        return shadow.quietRange(lo, hi);
    }

    /// feedDefense for an attacked sample with tone envelope [lo, hi]:
    /// the shadow's view, then the controller's inline step, or
    /// observeSample for a sample that takes a transition.
    void attackedSample(double t, double lo, double hi,
                        const analog::MonitorEvent& primary) const
    {
        const analog::MonitorEvent seen = shadowView(shadow, lo, hi);
        if (!controller.stepSample(t, lo, hi, primary, seen))
            controller.observeSample(t, lo, hi, primary, seen);
    }
};

}  // namespace

IntermittentSim::IntermittentSim(const compiler::CompiledProgram& compiled,
                                 const device::DeviceProfile& device,
                                 const SimConfig& config,
                                 energy::Harvester& harvester, IoHub& io)
    : device_(device), config_(config), harvester_(harvester),
      nvm_(config.memWords), machine_(compiled, nvm_, io),
      runtime_(compiled, machine_, nvm_), cap_(config.cap)
{
    vOn_ = config.vOnOverride > 0 ? config.vOnOverride : device.vOn;
    vBackup_ =
        config.vBackupOverride > 0 ? config.vBackupOverride : device.vBackup;
    vOff_ = device.vOff;
    energyAtVoff_ = 0.5 * cap_.capacitance() * vOff_ * vOff_;
    epc_ = device.power.energyPerCycleJ;
    spc_ = device.power.secondsPerCycle();

    monitor_ = device.makeMonitor(config.monitorKind);
    // Thresholds may be overridden (capacitor-size sweep); rebuild the
    // monitor if so.
    if (config.vOnOverride > 0 || config.vBackupOverride > 0) {
        if (config.monitorKind == analog::MonitorKind::kAdc) {
            monitor_ = std::make_unique<analog::AdcMonitor>(
                device.adcBits, device.vccNominal, vBackup_, vOn_,
                device.adcSampleHz);
        } else {
            monitor_ = std::make_unique<analog::ComparatorMonitor>(
                vBackup_, vOn_, device.compHysteresisV, device.compCheckHz);
        }
    }
    monitor_->reset(cap_.voltage());
    adcMonitor_ = dynamic_cast<analog::AdcMonitor*>(monitor_.get());
    compMonitor_ = dynamic_cast<analog::ComparatorMonitor*>(monitor_.get());

    coalesceLimit_ = resolveCoalesceLimit(config.coalesceQuanta);

    bool staged = compiled.scheme != Scheme::kNvp;
    machine_.setStagedIo(staged);
    machine_.setContinuous(config.continuous);
    machine_.setFaultTolerant(true);
    runtime_.setJitRamWords(config.jitRamWords);

    // DCO sample jitter is centrally seeded: with no GECKO_SEED and the
    // default monitorSeed this stays 0, preserving the historical
    // sample sequence bit-for-bit.
    sampleSeq_ =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(config.monitorSeed));

    // Adaptive defense (DESIGN.md §11): guarded schemes only — NVP and
    // Ratchet stay exactly as the paper evaluates them.
    if (config.defense.enabled &&
        (compiled.scheme == Scheme::kGecko ||
         compiled.scheme == Scheme::kGeckoNoPrune)) {
        if (config.monitorKind == analog::MonitorKind::kAdc) {
            shadowMonitor_ = std::make_unique<analog::ComparatorMonitor>(
                vBackup_, vOn_, device.compHysteresisV, device.compCheckHz);
        } else {
            shadowMonitor_ = std::make_unique<analog::AdcMonitor>(
                device.adcBits, device.vccNominal, vBackup_, vOn_,
                device.adcSampleHz);
        }
        shadowMonitor_->reset(cap_.voltage());

        defense::PlantModel plant;
        plant.clockHz = device.power.clockHz;
        plant.energyPerCycleJ = device.power.energyPerCycleJ;
        plant.sleepPowerW = device.power.sleepPowerW;
        plant.capacitanceF = cap_.capacitance();
        plant.sourceResistance =
            std::max(harvester.seriesResistance(0.0), 1e-3);
        plant.maxV = device.vccNominal;
        plant.vOn = vOn_;
        plant.vOff = vOff_;
        plant.bootEnergyJ =
            static_cast<double>(config.bootOverheadCycles) *
            device.power.energyPerCycleJ;
        defense_ =
            std::make_unique<defense::DefenseController>(config.defense,
                                                         plant);
        runtime_.setDefense(defense_.get());
    }

#if GECKO_TRACE
    // Arm trace emission of threshold crossings and outage edges; inert
    // unless a trace buffer is installed for the running case.
    cap_.watchThresholds(vOff_, vBackup_, vOn_);
#endif
}

bool
IntermittentSim::attackActive() const
{
    return emi_ != nullptr && emi_->enabled() && emi_->amplitude() > 1e-4;
}

void
IntermittentSim::updateAttack()
{
    if (!schedule_ || !emi_)
        return;
    auto window = schedule_->activeAt(now_);
    if (window) {
        if (!emi_->enabled() || emi_->freqHz() != window->freqHz ||
            emi_->powerDbm() != window->powerDbm)
            emi_->setTone(window->freqHz, window->powerDbm);
        emi_->setEnabled(true);
    } else {
        emi_->setEnabled(false);
    }
}

double
IntermittentSim::emiAt(double t)
{
    if (!emi_)
        return 0.0;
    // DCO-clocked sampling: the conversion trigger jitters by tens of
    // nanoseconds, decorrelating the carrier phase between samples.
    // A full avalanche hash keeps successive jitters independent while
    // runs stay reproducible.
    std::uint32_t h = ++sampleSeq_;
    h ^= h >> 16;
    h *= 0x45d9f3bu;
    h ^= h >> 16;
    h *= 0x45d9f3bu;
    h ^= h >> 16;
    double jitter = (h >> 8) * (config_.sampleJitterS / double(1u << 24));
    return emi_->voltageAt(t + jitter);
}

analog::MonitorEvent
IntermittentSim::observeMonitor()
{
    GECKO_TRACE_TIME(now_);
    // maybe_unused: referenced only from trace-macro arguments, which
    // a GECKO_TRACE=0 build compiles away.
    [[maybe_unused]] const auto tripFlags =
        [this](const analog::MonitorEvent& ev) {
        std::uint16_t flags = 0;
        if (ev.backup)
            flags |= trace::kFlagBackup;
        if (ev.wake)
            flags |= trace::kFlagWake;
        if (attackActive())
            flags |= trace::kFlagAttack;
        if (monitorFault_)
            flags |= trace::kFlagMonitorFault;
        return flags;
    };
    double v = cap_.voltage();
    // Continuous (comparator) monitors react to every excursion inside
    // the window: feed them the window's envelope under attack.
    if (monitor_->continuous() && attackActive()) {
        const double wLo = v - emi_->amplitude();
        const double wHi = v + emi_->amplitude();
        double lo = wLo;
        double hi = wHi;
        if (monitorFault_) {
            double flo = monitorFault_(lo, now_);
            double fhi = monitorFault_(hi, now_);
            if (!monitorFaultTraced_ && (flo != lo || fhi != hi)) {
                monitorFaultTraced_ = true;
                GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                                  trace::kSiteMonitorFault, traceMv(fhi));
            }
            lo = flo;
            hi = fhi;
            if (lo > hi)
                std::swap(lo, hi);
        }
        analog::MonitorEvent ev = monitor_->observeEnvelope(lo, hi);
        if (ev.backup || ev.wake)
            GECKO_TRACE_EVENT(trace::EventKind::kMonitorTrip, tripFlags(ev),
                              traceMv(v), traceMv(hi));
        if (defense_)
            feedDefense(wLo, wHi, ev);
        return ev;
    }
    double seen = v + emiAt(now_);
    if (monitorFault_) {
        double faulted = monitorFault_(seen, now_);
        if (!monitorFaultTraced_ && faulted != seen) {
            monitorFaultTraced_ = true;
            GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                              trace::kSiteMonitorFault, traceMv(faulted));
        }
        seen = faulted;
    }
    analog::MonitorEvent ev = monitor_->observe(seen);
    if (ev.backup || ev.wake)
        GECKO_TRACE_EVENT(trace::EventKind::kMonitorTrip, tripFlags(ev),
                          traceMv(v), traceMv(seen));
    if (defense_) {
        // The analog reality the redundant sensing path is exposed to:
        // the full tone envelope under attack, the point reading
        // otherwise.
        if (attackActive())
            feedDefense(v - emi_->amplitude(), v + emi_->amplitude(), ev);
        else
            feedDefense(seen, seen, ev);
    }
    return ev;
}

void
IntermittentSim::feedDefense(double vLo, double vHi,
                             const analog::MonitorEvent& primary)
{
    defense_->observeSample(now_, vLo, vHi, primary,
                            shadowView(*shadowMonitor_, vLo, vHi));
}

void
IntermittentSim::doJitCheckpoint()
{
    // One full attempt costs this much energy at most; a retry is only
    // worthwhile while the buffer can still afford a complete image.
    const double attemptEnergy =
        static_cast<double>(config_.jitRamWords + Nvm::kJitWords) *
        kJitStoreCycles * epc_;
    const bool faultHook = static_cast<bool>(jitWriteFault_);
    // The first word at which words >= jitAbortWindowWords holds.
    const int vetoWord = std::max(config_.jitAbortWindowWords, 1);

    for (int attempt = 0;; ++attempt) {
        ++stats.jitCheckpointAttempts;
        // CTPL re-checks the wake condition during the first part of the
        // powerdown routine; a (possibly forged) wake signal there vetoes
        // the checkpoint and resumes execution — leaving the *previous*
        // image in place with the ACK untouched.
        int words = 0;
        bool aborted = false;
        bool faulted = false;
        // The word march: per word one energy test, one discharge and
        // one clock step, broken only by the 64-word recharge points and
        // the single veto read.  JitCheckpoint::checkpoint takes this
        // lambda as a template argument, so the march inlines into its
        // word loop.
        auto spend = [&](int cycles) {
            if (faultHook && jitWriteFault_(words)) {
                // Transient write failure (injected mid-burst
                // disturbance): the routine detects it and bails out so
                // the boot path never trusts the partial image.
                faulted = true;
                GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                                  trace::kSiteJitWriteFault,
                                  static_cast<std::uint64_t>(words));
                return false;
            }
            double e = cycles * epc_;
            if (cap_.energy() - e <= energyAtVoff_)
                return false;  // buffer dead: checkpoint torn
            cap_.discharge(e);
            now_ += cycles * spc_;
            GECKO_TRACE_TIME(now_);
            ++words;
            // The harvester keeps feeding the buffer during the routine.
            if ((words & 63) == 0)
                cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                                harvester_.seriesResistance(now_),
                                64 * cycles * spc_);
            if (words == vetoWord) {
                // The veto is one extra monitor read (a single ADC
                // conversion / one comparator-output read) — a point
                // sample of the EMI-distorted rail, never the envelope.
                double seen = cap_.voltage() + emiAt(now_);
                if (monitorFault_)
                    seen = monitorFault_(seen, now_);
                if (monitor_->observe(seen).wake) {
                    aborted = true;
                    return false;
                }
            }
            return true;
        };
        JitResult result = JitCheckpoint::checkpoint(machine_, nvm_, spend,
                                                     config_.jitRamWords);
        if (result.complete) {
            ++stats.jitCheckpointsComplete;
            runtime_.noteJitCheckpointComplete();
            enterSleep();
            GECKO_TRACE_EVENT(trace::EventKind::kSleepEnter,
                              trace::kFlagJitArmed, 0, 0);
            return;
        }
        if (aborted) {
            ++stats.jitCheckpointsAborted;
            GECKO_TRACE_EVENT(trace::EventKind::kJitSaveAbort, 0,
                              static_cast<std::uint64_t>(attempt),
                              static_cast<std::uint64_t>(words));
            // The wake ISR cancels the powerdown: keep running with the
            // volatile state intact.
            state_ = State::kRunning;
            return;
        }
        if (faulted && attempt < config_.jitSaveRetryLimit &&
            cap_.energy() - energyAtVoff_ > attemptEnergy) {
            // Bounded retry with linear backoff: idle a short while so a
            // transient disturbance burst can pass, then try again.
            runtime_.noteCkptSaveRetry();
            GECKO_TRACE_EVENT(trace::EventKind::kJitSaveRetry, 0,
                              static_cast<std::uint64_t>(attempt),
                              static_cast<std::uint64_t>(words));
            // The adaptive controller owns the backoff policy when
            // attached (linear in kNominal, exponential-with-cap once
            // escalated); the static linear schedule otherwise.
            double backoff =
                defense_
                    ? static_cast<double>(defense_->backoffCycles(attempt))
                    : static_cast<double>(config_.jitRetryBackoffCycles) *
                          (attempt + 1);
            cap_.discharge(backoff * epc_);
            cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                            harvester_.seriesResistance(now_),
                            backoff * spc_);
            now_ += backoff * spc_;
            GECKO_TRACE_TIME(now_);
            continue;
        }
        GECKO_TRACE_EVENT(trace::EventKind::kJitSaveTorn, 0,
                          static_cast<std::uint64_t>(attempt),
                          faulted ? 1u : 0u);
        if (faulted) {
            GECKO_TRACE_EVENT(trace::EventKind::kJitRetriesExhausted, 0,
                              static_cast<std::uint64_t>(attempt), 0);
            runtime_.setNow(now_);
            runtime_.noteCkptRetriesExhausted();
        }
        ++stats.jitCheckpointsTorn;
        enterSleep();
        GECKO_TRACE_EVENT(trace::EventKind::kSleepEnter,
                          trace::kFlagJitArmed, 0, 0);
        return;
    }
}

void
IntermittentSim::hardDeath()
{
    ++stats.hardDeaths;
    GECKO_TRACE_TIME(now_);
    GECKO_TRACE_EVENT(trace::EventKind::kPowerLoss,
                      runtime_.jitActive() ? trace::kFlagJitArmed : 0,
                      stats.hardDeaths, 0);
    if (runtime_.jitActive())
        ++stats.missedCheckpoints;
    enterSleep();
}

void
IntermittentSim::enterSleep()
{
    state_ = State::kSleeping;
    if (defense_) {
        // Physics estimate of the full recharge; in kDegraded this arms
        // the dwell that gates forgeable monitor wakes.
        defense_->noteSleepEnter(
            now_, cap_.timeToReach(vOn_,
                                   harvester_.openCircuitVoltage(now_),
                                   harvester_.seriesResistance(now_)));
    }
}

void
IntermittentSim::boot()
{
    ++stats.reboots;
    machine_.powerCycle();
    // Timer evidence for the boot protocol: how long did the previous
    // power-on period actually run?
    std::uint64_t prev_on = machine_.stats.cycles - cyclesAtBoot_;
    GECKO_TRACE_TIME(now_);
    GECKO_TRACE_EVENT(trace::EventKind::kBoot, 0, stats.reboots,
                      stats.reboots == 1 ? 0 : prev_on);
    runtime_.setNow(now_);
    std::uint64_t cycles = config_.bootOverheadCycles +
                           runtime_.onBoot(stats.reboots == 1
                                               ? ~std::uint64_t{0}
                                               : prev_on);
    cyclesAtBoot_ = machine_.stats.cycles;
    cap_.discharge(cycles * epc_);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_),
                    cycles * spc_);
    now_ += cycles * spc_;
    stats.bootCycles += cycles;
    if (defense_)
        defense_->noteEnergyCost(now_, static_cast<double>(cycles) * epc_);
    state_ = State::kRunning;
}

void
IntermittentSim::stepRunning(double end, bool allowCoalesce)
{
    bool attacked = attackActive();
    int stride = attacked ? 1 : config_.quietStride;
    // Near the backup threshold, sample at full rate even when quiet so
    // the crossing is caught with fine granularity.
    if (stride > 1) {
        double e_backup = 0.5 * cap_.capacitance() * vBackup_ * vBackup_;
        double quantum = monitor_->sampleIntervalS() * stride *
                         device_.power.clockHz * epc_;
        if (cap_.nearThresholdE(e_backup, 4.0 * quantum))
            stride = 1;
    }
    double dt = monitor_->sampleIntervalS() * stride;

    // Quantum-coalescing fast path (DESIGN.md §14).  Cheap side
    // conditions here; coalescedRun performs the physics proof.  Every
    // skipped per-quantum hook is provably inert or replayed under these
    // guards: updateAttack (source disabled, no window in the horizon),
    // onProgress (probe disarmed; the controller's commit notes group
    // exactly), trace macros (no buffer installed), monitor and shadow
    // observations (quietRange latch stability), the controller's
    // sample step (stepped by the policy, the burst cut before any
    // transition).
    if (allowCoalesce && coalesceLimit_ >= 2 && !attacked &&
        !monitorFault_ && !runtime_.probeArmed() &&
        (emi_ == nullptr || !emi_->enabled()) &&
        trace::current() == nullptr) {
        bool advanced = false;
        if (defense_ == nullptr)
            advanced = coalescedRun(NoDefense{}, stride, dt, end);
        else if (defense_->commitsGroup())
            advanced = coalescedRun(Defense{*defense_, *shadowMonitor_},
                                    stride, dt, end);
        if (advanced)
            return;
    }

    ++stats.quanta;

    // Cycles this quantum affords at the clock rate.  The capacitor is
    // debited this *planned* budget (not the machine's consumption) so
    // the energy trajectory is independent of instruction boundaries;
    // the interpreter's one-instruction budget overshoot (an I/O
    // transaction is hundreds of cycles) rides in the debt ledger and
    // is netted off the next quantum's machine budget, so the long-run
    // rate matches the clock exactly.
    cycleCarry_ += dt * device_.power.clockHz;
    std::uint64_t planned =
        cycleCarry_ > 0 ? static_cast<std::uint64_t>(cycleCarry_) : 0;
    cycleCarry_ -= static_cast<double>(planned);

    // Crossing-safe energy bound: a discharge capped here can never
    // cross the V_off floor mid-quantum, which is what lets the
    // machine's block backend execute whole superblocks between
    // discharge batches.
    std::uint64_t can_run = cap_.affordableCycles(epc_, energyAtVoff_);

    if (planned > can_run) {
        // The buffer cannot pay for the whole quantum: V_CC crosses
        // V_off mid-step and the brown-out detector resets the MCU (it
        // cannot throttle through an undervoltage).  Let the core run
        // what the remaining energy covers, settle the cycle ledger,
        // and die.
        std::int64_t b = static_cast<std::int64_t>(can_run) - debt_;
        std::uint64_t consumed = 0;
        if (b > 0) {
            machine_.run(static_cast<std::uint64_t>(b), &consumed);
            if (consumed > 0)
                runtime_.noteExecutionSinceCheckpoint();
            runtime_.onProgress();
        }
        std::int64_t owed = debt_ + static_cast<std::int64_t>(consumed);
        cap_.dischargeCycles(
            owed > 0 ? static_cast<std::uint64_t>(owed) : 0, epc_);
        debt_ = 0;
        cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                        harvester_.seriesResistance(now_), dt);
        now_ += dt;
        hardDeath();
        return;
    }

    std::int64_t b = static_cast<std::int64_t>(planned) - debt_;
    std::uint64_t consumed = 0;
    if (b > 0) {
        machine_.run(static_cast<std::uint64_t>(b), &consumed);
        if (consumed > 0)
            runtime_.noteExecutionSinceCheckpoint();
        runtime_.onProgress();
    }
    debt_ += static_cast<std::int64_t>(consumed) -
             static_cast<std::int64_t>(planned);
    cap_.dischargeCycles(planned, epc_);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_), dt);
    now_ += dt;

    onRunningEvents(observeMonitor());
}

void
IntermittentSim::onRunningEvents(const analog::MonitorEvent& ev)
{
    if (ev.backup) {
        ++stats.backupSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kBackupSignal,
                          runtime_.jitActive() ? 0 : trace::kFlagIgnored,
                          stats.backupSignals, 0);
        runtime_.onBackupSignal();
        if (runtime_.jitActive())
            doJitCheckpoint();
        else
            ++stats.ignoredBackups;
    }
    if (ev.wake) {
        ++stats.wakeSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                          stats.wakeSignals, 0);
    }
}


template <class Policy>
bool
IntermittentSim::coalescedRun(Policy defense, int stride, double dt,
                              double end)
{
    // ------------------------------------------------------------------
    // Burst-length selection.  Start from the configured limit and
    // halve until the harvester is *provably* constant over the horizon
    // and no attack window can switch the tone on inside it.  The +1
    // quantum of margin keeps the checks conservative against the
    // burst's own floating-point time accumulation.
    // ------------------------------------------------------------------
    const double voc = harvester_.openCircuitVoltage(now_);
    const double rs = harvester_.seriesResistance(now_);
    int m = coalesceLimit_;
    for (; m >= 2; m >>= 1) {
        const double horizon = now_ + dt * static_cast<double>(m + 1);
        if (!harvester_.constantOver(now_, dt * static_cast<double>(m + 1)))
            continue;
        if (schedule_ && emi_ && schedule_->overlapsRange(now_, horizon))
            continue;
        break;
    }
    if (m < 2)
        return false;

    // ------------------------------------------------------------------
    // Trajectory proof.  With the source proven constant, the burst's
    // evolution is fully determined; replay the exact per-quantum
    // arithmetic (cycle carry → planned budget, quietStepEnergy) on
    // local copies and check, quantum by quantum, that the slow path
    // would (a) make the same stride choice — a coarse burst must stay
    // outside the V_backup proximity margin, a fine burst must stay
    // inside it, and (b) afford the whole clock budget — no brown-out.
    // Exactness matters: a pessimistic march that ignores recharge
    // rejects the charge/run duty cycles that dominate the figures.
    // The end-of-quantum voltages feed the monitor proof; when that
    // fails (a declining tail approaching the V_backup crossing), halve
    // the burst — the shorter prefix spans a tighter voltage band.
    // With a controller attached the march also steps a copy of it
    // through each quantum's quiet sample and cuts the burst before the
    // first sample that would take a transition, so the stepped path
    // takes that one.  The march stops where the stepped path's
    // horizon `end` would, so its end state (energy, carry, clock,
    // summed budget, controller copy) is exactly the burst's.
    // ------------------------------------------------------------------
    const auto plan = cap_.planCharge(voc, rs, dt);
    const double cf = cap_.capacitance();
    const double maxV = cap_.maxVoltage();
    const double eBackup = 0.5 * cf * vBackup_ * vBackup_;
    // The proximity margin of the slow path's stride decision, always
    // in coarse-quantum units (stepRunning's exact expression).
    const double quantumE = monitor_->sampleIntervalS() *
                            config_.quietStride * device_.power.clockHz *
                            epc_;
    const bool fineBurst = stride == 1;
    int k = 0;
    double vLo = 0.0;
    double vHi = 0.0;
    double e = 0.0;
    double carry = 0.0;
    double t = 0.0;
    std::uint64_t fusedPlanned = 0;
    auto probe = defense.probe();
    for (int mTry = m;;) {
        k = 0;
        e = cap_.energy();
        carry = cycleCarry_;
        t = now_;
        fusedPlanned = 0;
        if (mTry != m)
            probe = defense.probe();
        while (k < mTry) {
            // The horizon: the stepped path starts no quantum at or
            // past `end`.
            if (k > 0 && t >= end)
                break;
            // Stride re-check at the top of every quantum after the
            // first (stepRunning decided it for the current one).
            if (k > 0 && config_.quietStride > 1 &&
                (e - eBackup < 4.0 * quantumE) != fineBurst)
                break;
            double nextCarry = carry + dt * device_.power.clockHz;
            const std::uint64_t planned =
                nextCarry > 0 ? static_cast<std::uint64_t>(nextCarry) : 0;
            nextCarry -= static_cast<double>(planned);
            const double avail = e - energyAtVoff_;
            const std::uint64_t can =
                avail > 0 ? static_cast<std::uint64_t>(avail / epc_) : 0;
            if (planned > can)
                break;  // this quantum browns out: the slow path must die
            const double nextE = energy::Capacitor::quietStepEnergy(
                e, static_cast<double>(planned) * epc_, plan, cf, maxV);
            const double v = std::sqrt(2.0 * nextE / cf);
            const double nextT = t + dt;
            if (!probe.quietSample(nextT, v))
                break;  // a controller transition: the slow path takes it
            e = nextE;
            carry = nextCarry;
            t = nextT;
            fusedPlanned += planned;
            vLo = k == 0 ? v : std::min(vLo, v);
            vHi = k == 0 ? v : std::max(vHi, v);
            ++k;
        }
        if (k < 2)
            return false;
        // Monitor proof.  Every skipped observation samples an
        // end-of-quantum voltage, all confined to [vLo, vHi] by the
        // exact march above (EMI contributes exactly 0.0 with the
        // source disabled).  quietRange certifies that no backup/wake
        // edge can fire and no latch can move anywhere in that band —
        // the skipped observations are pure no-ops, the shadow's too.
        if (monitor_->quietRange(vLo, vHi) &&
            defense.shadowQuiet(vLo, vHi))
            break;
        if (mTry == 2)
            return false;
        mTry = std::max(2, k >> 1);
    }

    // ------------------------------------------------------------------
    // Commit: adopt the march's end state — the stored energy, cycle
    // carry and clock it reached with the slow path's per-quantum
    // arithmetic (bit-identical under the proven-constant source) and
    // the controller copy it stepped through the same quanta — then one
    // fused machine run.  noteSource settles the outage latch exactly
    // as the k skipped chargeFrom calls would.
    // ------------------------------------------------------------------
    cap_.noteSource(voc);
    cap_.adoptQuietEnergy(e);
    cycleCarry_ = carry;
    now_ = t;
    defense.adopt(probe);
    if (emi_) {
        // The skipped point observations would each have drawn one DCO
        // jitter sample; keep the sequence aligned.
        sampleSeq_ += static_cast<std::uint32_t>(k);
    }
    stats.quanta += static_cast<std::uint64_t>(k);
    stats.coalescedQuanta += static_cast<std::uint64_t>(k);
    ++stats.coalescedBursts;

    // One fused run.  Sequential quanta stop the machine at cumulative
    // instruction boundaries ≥ Σplanned − debt₀, which is exactly where
    // a single budget of that size stops it; a halt or latched fault
    // that exits early is topped up with burn-budget runs, as the
    // skipped quanta would have done one by one.  The one onProgress
    // (one noteCommit) stands for the per-quantum ones: the caller's
    // commitsGroup guard makes the grouping exact.
    std::int64_t b = static_cast<std::int64_t>(fusedPlanned) - debt_;
    std::uint64_t consumedTotal = 0;
    if (b > 0) {
        const std::uint64_t target = static_cast<std::uint64_t>(b);
        for (int i = 0; i < 4 && consumedTotal < target; ++i) {
            std::uint64_t c = 0;
            machine_.run(target - consumedTotal, &c);
            consumedTotal += c;
            if (c == 0)
                break;
        }
        if (consumedTotal > 0)
            runtime_.noteExecutionSinceCheckpoint();
        runtime_.onProgress();
    }
    debt_ += static_cast<std::int64_t>(consumedTotal) -
             static_cast<std::int64_t>(fusedPlanned);
    return true;
}

bool
IntermittentSim::fusedRun(FusedSpan& span, double stopAt)
{
    // Guards (DESIGN.md §14.1).  Each keeps a per-quantum hook the
    // kernel skips provably inert: no trace buffer (trace macros,
    // crossing and outage events) and no monitor fault (the only other
    // reader of an observation).  A defense controller is a policy of
    // the kernel, not a guard.  The coalescing switch turns every fast
    // path off together.
    if (coalesceLimit_ < 2 || !attackActive() || monitorFault_ ||
        trace::current() != nullptr)
        return false;
    if (now_ >= span.until && !proveFusedSpan(span))
        return false;
    const auto run = [&](auto policy) {
        if (compMonitor_ != nullptr)
            return fusedQuanta(*compMonitor_, policy, span, stopAt);
        if (adcMonitor_ != nullptr)
            return fusedQuanta(*adcMonitor_, policy, span, stopAt);
        return false;
    };
    if (defense_ == nullptr)
        return run(NoDefense{});
    return run(Defense{*defense_, *shadowMonitor_});
}

bool
IntermittentSim::proveFusedSpan(FusedSpan& span)
{
    // Under attack the monitor samples every quantum (stride 1).
    const double dt = monitor_->sampleIntervalS();
    // Halve until the harvester is provably constant; the +1 quantum of
    // margin absorbs the span's own floating-point time accumulation,
    // as in coalescedRun.
    int m = std::clamp(2 * span.quanta, 1, FusedSpan::kMaxQuanta);
    while (m >= 1 &&
           !harvester_.constantOver(now_, dt * static_cast<double>(m + 1)))
        m >>= 1;
    span.quanta = m;
    if (m < 1)
        return false;
    // updateAttack sets the same tone at every instant before the next
    // window edge, so the kernel may skip it until then.
    double until = now_ + dt * static_cast<double>(m);
    if (schedule_ != nullptr)
        until = std::min(until, schedule_->nextEdgeAfter(now_));
    span.until = until;
    span.dt = dt;
    span.voc = harvester_.openCircuitVoltage(now_);
    span.plan =
        cap_.planCharge(span.voc, harvester_.seriesResistance(now_), dt);
    return true;
}

template <class Monitor, class Policy>
bool
IntermittentSim::fusedQuanta(Monitor& monitor, Policy defense,
                             const FusedSpan& span, double stopAt)
{
    const bool running = state_ == State::kRunning;
    const double dt = span.dt;
    const double cyclesPerQuantum = dt * device_.power.clockHz;
    const double sleepJ = device_.power.sleepPowerW * dt;
    const double amplitude = emi_->amplitude();
    bool advanced = false;
    while (now_ < stopAt && now_ < span.until) {
        if (running) {
            // stepRunning's budget on copies: hand the quantum back
            // untouched if the machine must run or the buffer cannot
            // pay for it (brown-out).
            double carry = cycleCarry_ + cyclesPerQuantum;
            const std::uint64_t planned =
                carry > 0 ? static_cast<std::uint64_t>(carry) : 0;
            carry -= static_cast<double>(planned);
            if (static_cast<std::int64_t>(planned) > debt_ ||
                planned > cap_.affordableCycles(epc_, energyAtVoff_))
                break;
            cycleCarry_ = carry;
            debt_ -= static_cast<std::int64_t>(planned);
            cap_.quietStep(static_cast<double>(planned) * epc_, span.plan);
            ++stats.quanta;
        } else {
            cap_.quietStep(sleepJ, span.plan);
            ++stats.sleepQuanta;
        }
        if (!advanced) {
            // Settles the outage latch as every skipped chargeFrom
            // would (before any exit hands control to code that reads
            // the harvester at a later time).
            cap_.noteSource(span.voc);
            advanced = true;
        }
        ++stats.fusedQuanta;
        now_ += dt;

        // observeMonitor's attacked branch for this monitor type, then
        // feedDefense's.  A sample that takes a controller transition
        // goes to observeSample right here, as in the stepped path; the
        // kernel runs no machine and reads every mode-dependent policy
        // live below (jitActive at a backup, wakeAllowed at a wake), so
        // it goes on after one.
        const double v = cap_.voltage();
        analog::MonitorEvent ev;
        if constexpr (std::is_same_v<Monitor, analog::ComparatorMonitor>)
            ev = monitor.observeEnvelope(v - amplitude, v + amplitude);
        else
            ev = monitor.observe(v + emiAt(now_));
        defense.attackedSample(now_, v - amplitude, v + amplitude, ev);

        if (!running) {
            // Every wake goes through onSleepingWake, as in the stepped
            // path, so a controller's wakeAllowed (which counts a
            // deferral) is called exactly where it would be.  A wake
            // that does not boot (brown-out lockout or deferral) leaves
            // the node asleep, and the kernel goes on.
            if (ev.wake) {
                onSleepingWake();
                if (state_ == State::kRunning)
                    return true;
            }
            continue;
        }
        if (ev.backup) {
            if (runtime_.jitActive()) {
                onRunningEvents(ev);  // checkpoints
                return true;
            }
            ++stats.backupSignals;
            ++stats.ignoredBackups;
            runtime_.onBackupSignal();
        }
        if (ev.wake)
            ++stats.wakeSignals;
    }
    return advanced;
}

void
IntermittentSim::stepSleeping()
{
    // Fast path: no tone now or during the whole charge, steady source —
    // jump straight to the wake threshold.  A faulted monitor must keep
    // sampling: its (wrong) readings decide the wake, not the rail.
    if (!attackActive() && !monitorFault_) {
        double voc = harvester_.openCircuitVoltage(now_);
        double rs = harvester_.seriesResistance(now_);
        double t_wake = cap_.timeToReach(vOn_, voc, rs);
        bool tone_later = false;
        if (schedule_ && emi_) {
            double horizon = t_wake >= 0 ? now_ + t_wake : now_ + 1.0;
            tone_later = schedule_->overlapsRange(now_, horizon);
        }
        if (!tone_later && t_wake >= 0 &&
            harvester_.steadyOver(now_, t_wake) &&
            (defense_ == nullptr ||
             defense_->wakeAllowed(now_ + t_wake))) {
            cap_.chargeFrom(voc, rs, t_wake);
            now_ += t_wake + monitor_->sampleIntervalS();
            monitor_->reset(cap_.voltage());
            if (shadowMonitor_)
                shadowMonitor_->reset(cap_.voltage());
            ++stats.wakeSignals;
            GECKO_TRACE_TIME(now_);
            GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                              stats.wakeSignals, 0);
            boot();
            return;
        }
    }

    bool attacked = attackActive();
    double dt = monitor_->sampleIntervalS() *
                (attacked ? 1 : config_.quietStride);
    ++stats.sleepQuanta;
    cap_.discharge(device_.power.sleepPowerW * dt);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_), dt);
    now_ += dt;

    if (observeMonitor().wake)
        onSleepingWake();
}

void
IntermittentSim::onSleepingWake()
{
    ++stats.wakeSignals;
    // Brown-out lockout: the PMU holds reset until V_CC clears
    // V_off plus hysteresis.  A fake wake can only boot the system
    // inside the paper's malicious window V_off < V_fail < V_backup
    // (or legitimately above).
    const bool clear = cap_.voltage() > vOff_ + config_.bootLockoutV;
    // In kDegraded the controller distrusts the forgeable monitor
    // wake and defers the boot until the physics-timed recharge
    // dwell has elapsed (forward-progress ratchet, DESIGN.md §11).
    const bool allowed =
        defense_ == nullptr || defense_->wakeAllowed(now_);
    GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal,
                      static_cast<std::uint16_t>(
                          (clear ? 0 : trace::kFlagLockout) |
                          (allowed ? 0 : trace::kFlagIgnored)),
                      stats.wakeSignals, 0);
    if (clear && allowed)
        boot();
}

void
IntermittentSim::runLoop(double end, std::uint64_t targetCompletions)
{
    const bool bounded = targetCompletions != kNoCompletionTarget;
    if (bounded && machine_.stats.completions >= targetCompletions)
        return;
    GECKO_TRACE_TIME(now_);
    // Initial power-up.
    if (nvm_.bootCount == 0 && cap_.voltage() >= vOn_ &&
        state_ == State::kSleeping) {
        ++stats.wakeSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                          stats.wakeSignals, 0);
        boot();
    }
    // A finite completion target is polled on the historical 0.01 s
    // cadence — inside this one loop, without the old driver's per-slice
    // run() re-entry — so a bounded run settles up to one poll slice
    // past the landing quantum, exactly as it always has (the fault
    // campaign's post-completion evidence depends on that tail).
    // Coalesced bursts are capped at the poll horizon, so the poll sees
    // every completion a burst could have produced.
    double pollEnd = bounded ? std::min(now_ + kCompletionPollS, end) : end;
    FusedSpan span;
    while (now_ < end) {
        if (bounded && now_ >= pollEnd) {
            if (machine_.stats.completions >= targetCompletions)
                break;
            pollEnd = std::min(now_ + kCompletionPollS, end);
        }
        GECKO_TRACE_TIME(now_);
        updateAttack();
        if (fusedRun(span, pollEnd))
            continue;
        if (state_ == State::kRunning)
            stepRunning(pollEnd, true);
        else
            stepSleeping();
    }
    stats.simTimeS = now_;
}

void
IntermittentSim::run(double simSeconds)
{
    runLoop(now_ + simSeconds, kNoCompletionTarget);
}

bool
IntermittentSim::runUntilCompletions(std::uint64_t target,
                                     double maxSimSeconds)
{
    runLoop(now_ + maxSimSeconds, target);
    return machine_.stats.completions >= target;
}

double
IntermittentSim::checkpointFailureRate() const
{
    std::uint64_t fails = stats.jitCheckpointsTorn +
                          stats.jitCheckpointsAborted +
                          stats.missedCheckpoints;
    std::uint64_t total = stats.jitCheckpointAttempts + stats.missedCheckpoints;
    if (total == 0)
        return 0.0;
    return static_cast<double>(fails) / static_cast<double>(total);
}

std::uint64_t
runToCompletion(const compiler::CompiledProgram& compiled, Nvm& nvm,
                IoHub& io)
{
    Machine machine(compiled, nvm, io);
    machine.setStagedIo(compiled.scheme != Scheme::kNvp);
    machine.setContinuous(false);
    std::uint64_t total = 0;
    while (!machine.halted()) {
        std::uint64_t consumed = 0;
        RunExit exit = machine.run(1u << 20, &consumed);
        total += consumed;
        if (exit == RunExit::kFaulted)
            throw std::runtime_error("program faulted in golden run");
        if (total > (1ull << 36))
            throw std::runtime_error("golden run did not terminate");
    }
    return total;
}

void
IntermittentSim::archiveState(campaign::Archive& ar)
{
    ar.section("intermittent_sim");
    // Configuration fingerprint: the snapshot only makes sense inside
    // an identically reconstructed simulator.  These are guards, not
    // restored values.
    ar.check(config_.memWords, "mem words");
    ar.check(static_cast<std::uint64_t>(
                 machine_.program().scheme),
             "scheme");
    ar.check(static_cast<std::uint64_t>(config_.monitorKind),
             "monitor kind");
    ar.check(config_.continuous ? 1 : 0, "continuous flag");
    ar.check(static_cast<std::uint64_t>(config_.jitRamWords),
             "jit ram words");
    ar.check(config_.defense.enabled ? 1 : 0, "defense enabled");
    ar.check(emi_ != nullptr ? 1 : 0, "emi source attached");
    ar.check(schedule_ != nullptr ? 1 : 0, "attack schedule attached");
    ar.check(shadowMonitor_ != nullptr ? 1 : 0, "shadow monitor");

    std::uint8_t state = static_cast<std::uint8_t>(state_);
    ar.u8(state);
    if (!ar.saving()) {
        if (state > static_cast<std::uint8_t>(State::kSleeping))
            throw campaign::SnapshotError("sim: bad state encoding");
        state_ = static_cast<State>(state);
    }
    ar.boolean(monitorFaultTraced_);
    ar.f64(now_);
    ar.f64(cycleCarry_);
    ar.i64(debt_);
    ar.u64(cyclesAtBoot_);
    ar.u32(sampleSeq_);

    ar.f64(stats.simTimeS);
    ar.u64(stats.reboots);
    ar.u64(stats.hardDeaths);
    ar.u64(stats.backupSignals);
    ar.u64(stats.wakeSignals);
    ar.u64(stats.ignoredBackups);
    ar.u64(stats.jitCheckpointAttempts);
    ar.u64(stats.jitCheckpointsComplete);
    ar.u64(stats.jitCheckpointsTorn);
    ar.u64(stats.jitCheckpointsAborted);
    ar.u64(stats.missedCheckpoints);
    ar.u64(stats.bootCycles);

    nvm_.archiveState(ar);
    machine_.archiveState(ar);
    runtime_.archiveState(ar);
    cap_.archiveState(ar);
    monitor_->archiveState(ar);
    if (shadowMonitor_)
        shadowMonitor_->archiveState(ar);
    if (defense_)
        defense_->archiveState(ar);
    if (emi_)
        emi_->archiveState(ar);
}

}  // namespace gecko::sim
