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
 * Resolve the fast-path switch: explicit config wins, then
 * GECKO_COALESCE; 0 or 1 turns the fused kernel off, leaving the
 * stepped reference path.  On by default.
 */
bool
resolveFastPath(int configured)
{
    if (configured < 0) {
        const char* env = std::getenv("GECKO_COALESCE");
        return env == nullptr || std::atoi(env) >= 2;
    }
    return configured >= 2;
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
 * The fused kernel's per-sample defense policy without a controller:
 * every hook is constant, so the undefended instantiations of
 * fusedQuanta compile to the plain loop.
 */
struct NoDefense {
    bool commitsGroup() const { return true; }
    template <class Settle>
    void sample(double, double, double, const analog::MonitorEvent&,
                Settle&&) const
    {
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

    bool commitsGroup() const { return controller.commitsGroup(); }

    /// feedDefense for a sample whose rail spans [lo, hi] (the tone
    /// envelope, or one point when quiet): the shadow's view, then the
    /// controller's inline step, or observeSample for a sample that
    /// takes a transition.  `settle` runs a deferred machine budget
    /// first, so a transition sees the stepped path's order: machine,
    /// then observation.
    template <class Settle>
    void sample(double t, double lo, double hi,
                const analog::MonitorEvent& primary, Settle&& settle) const
    {
        const analog::MonitorEvent seen = shadowView(shadow, lo, hi);
        if (!controller.stepSample(t, lo, hi, primary, seen)) {
            settle();
            controller.observeSample(t, lo, hi, primary, seen);
        }
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

    fastPath_ = resolveFastPath(config.coalesceQuanta);

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

double
IntermittentSim::quantumS(bool attacked) const
{
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
    return monitor_->sampleIntervalS() * stride;
}

void
IntermittentSim::stepRunning()
{
    const double dt = quantumS(attackActive());
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

void
IntermittentSim::runOwedMachine(std::int64_t lastStart)
{
    // Sequential quanta stop the machine at cumulative instruction
    // boundaries ≥ Σplanned − debt₀, which is exactly where a single
    // budget of that size stops it.  A halt or latched fault ends a run
    // early; the quanta after the one it fell in each burn their whole
    // budget, the quantum it fell in burns nothing more.  So the run
    // stops once where the last quantum starts: an early end before
    // that point is burnt to the full budget by the second run, one
    // after it is the last quantum's own and stays.
    if (debt_ >= 0)
        return;
    const std::uint64_t owed = static_cast<std::uint64_t>(-debt_);
    std::uint64_t consumed = 0;
    if (lastStart > 0)
        machine_.run(static_cast<std::uint64_t>(lastStart), &consumed);
    if (consumed < owed) {
        std::uint64_t c = 0;
        machine_.run(owed - consumed, &c);
        consumed += c;
    }
    if (consumed > 0)
        runtime_.noteExecutionSinceCheckpoint();
    runtime_.onProgress();
    debt_ += static_cast<std::int64_t>(consumed);
}

bool
IntermittentSim::fusedRun(FusedSpan& span, double stopAt)
{
    // Guards (DESIGN.md §14).  Each keeps a per-quantum hook the kernel
    // skips provably inert: no trace buffer (trace macros, crossing and
    // outage events) and no monitor fault (the only other reader of an
    // observation).  A defense controller is a policy of the kernel,
    // not a guard.  A quiet sleep is left to stepSleeping, whose
    // analytic wake jump skips the whole recharge.
    if (!fastPath_ || monitorFault_ || trace::current() != nullptr)
        return false;
    const bool tone = attackActive();
    if (!tone && state_ != State::kRunning)
        return false;
    const double dt = quantumS(tone);
    if ((now_ >= span.until || span.dt != dt || span.tone != tone) &&
        !proveFusedSpan(span, dt, tone))
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
IntermittentSim::proveFusedSpan(FusedSpan& span, double dt, bool tone)
{
    // Halve until the harvester is provably constant; the +1 quantum of
    // margin absorbs the span's own floating-point time accumulation.
    int m = std::clamp(2 * span.quanta, 1, FusedSpan::kMaxQuanta);
    while (m >= 1 &&
           !harvester_.constantOver(now_, dt * static_cast<double>(m + 1)))
        m >>= 1;
    span.quanta = m;
    if (m < 1)
        return false;
    // updateAttack sets the same tone, or none, at every instant before
    // the next window edge, so the kernel may skip it until then.
    double until = now_ + dt * static_cast<double>(m);
    if (schedule_ != nullptr)
        until = std::min(until, schedule_->nextEdgeAfter(now_));
    span.until = until;
    span.dt = dt;
    span.tone = tone;
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
    const double amplitude = span.tone ? emi_->amplitude() : 0.0;
    bool advanced = false;
    // Deferred machine budget: `owing` while debt_ holds running quanta
    // whose machine run has not happened yet; `lastStart` is the owed
    // budget up to the start of the last of them (runOwedMachine).  The
    // first quantum of the call has no stepped predecessor to split at.
    bool owing = false;
    std::int64_t lastStart = 0;
    bool first = true;
    const auto settle = [&] {
        if (owing) {
            runOwedMachine(lastStart);
            owing = false;
        }
    };
    while (now_ < stopAt && now_ < span.until) {
        if (running) {
            // stepRunning's stride decision, then its budget on copies:
            // hand the quantum back untouched if its length differs
            // from the span's, if the buffer cannot pay for it
            // (brown-out), or if the machine must run and its run
            // cannot wait.
            if (!span.tone && quantumS(false) != dt)
                break;
            double carry = cycleCarry_ + cyclesPerQuantum;
            const std::uint64_t planned =
                carry > 0 ? static_cast<std::uint64_t>(carry) : 0;
            carry -= static_cast<double>(planned);
            if (planned > cap_.affordableCycles(epc_, energyAtVoff_))
                break;
            if (static_cast<std::int64_t>(planned) > debt_) {
                // The run may wait while every per-quantum onProgress
                // equals one grouped call: the controller's commit
                // notes group, and a concluding probe cannot re-enable
                // JIT (disarmed, or a backup already seen).
                if (!defense.commitsGroup() ||
                    (runtime_.probeArmed() &&
                     !runtime_.sawBackupSinceBoot()))
                    break;
                owing = true;
            }
            lastStart = first ? 0 : -debt_;
            first = false;
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
        ++(span.tone ? stats.fusedQuanta : stats.coalescedQuanta);
        now_ += dt;

        // observeMonitor for this monitor type, then feedDefense: a
        // quiet point sample, or under the tone the comparator envelope
        // or the ADC point sample next to the tone envelope.  A sample
        // that takes a controller transition goes to observeSample
        // right here, after the deferred machine run, as in the stepped
        // path; the kernel reads every mode-dependent policy live below
        // (jitActive at a backup, wakeAllowed at a wake, the deferral
        // guard at the next quantum), so it goes on after one.
        const double v = cap_.voltage();
        double lo = v - amplitude;
        double hi = v + amplitude;
        analog::MonitorEvent ev;
        if (!span.tone) {
            lo = hi = v + emiAt(now_);
            ev = monitor.observe(lo);
        } else if constexpr (std::is_same_v<Monitor,
                                            analog::ComparatorMonitor>) {
            ev = monitor.observeEnvelope(lo, hi);
        } else {
            ev = monitor.observe(v + emiAt(now_));
        }
        defense.sample(now_, lo, hi, ev, settle);

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
                settle();
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
    settle();
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
    // The fused kernel stops at the poll horizon, so the poll sees
    // every completion its deferred machine run could have produced.
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
            stepRunning();
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
