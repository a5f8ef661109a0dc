#ifndef GECKO_RUNTIME_GECKO_RUNTIME_HPP_
#define GECKO_RUNTIME_GECKO_RUNTIME_HPP_

#include <cstdint>

#include "compiler/pipeline.hpp"
#include "sim/jit_checkpoint.hpp"
#include "sim/machine.hpp"
#include "sim/nvm.hpp"

/**
 * @file
 * The GECKO runtime: boot protocol with EMI-attack detection, rollback
 * recovery with recovery-block execution, and JIT re-enable (paper
 * §VI-A, §VI-E, §VI-F).  The same class also implements the plain
 * NVP and Ratchet boot paths so the simulator treats all schemes
 * uniformly.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::defense {
class DefenseController;
}

namespace gecko::runtime {

/** Counters maintained by the runtime. */
struct RuntimeStats {
    std::uint64_t rollbacks = 0;
    std::uint64_t jitRestores = 0;
    std::uint64_t corruptedRestores = 0;
    std::uint64_t attackDetections = 0;
    std::uint64_t ackDetections = 0;
    std::uint64_t dosDetections = 0;
    std::uint64_t jitReenables = 0;
    std::uint64_t recoveryBlockRuns = 0;
    std::uint64_t recoveryInstrRuns = 0;
    // --- integrity hardening (fault campaign defence) ---
    /// JIT images rejected at restore by the CRC/epoch guard.
    std::uint64_t crcRejects = 0;
    /// Slot reads whose primary copy failed its CRC and were served
    /// from the shadow copy.
    std::uint64_t slotRepairs = 0;
    /// Slot reads where both copies failed their CRCs (restored
    /// best-effort from the primary; campaign never produces this
    /// under the single-word fault model).
    std::uint64_t slotUnrecoverable = 0;
    /// Checkpoint saves retried after a transient mid-burst failure.
    std::uint64_t ckptSaveRetries = 0;
    /// Checkpoint saves abandoned after the retry budget ran out.
    std::uint64_t retriesExhausted = 0;
    /// Times persistent integrity failures degraded the runtime to the
    /// JIT-disabled rollback mode.
    std::uint64_t integrityDegradations = 0;
};

/** Per-scheme recovery runtime. */
class GeckoRuntime
{
  public:
    /**
     * @param compiled program + region metadata (must outlive the runtime)
     * @param machine / nvm the simulated core and its persistent memory
     */
    GeckoRuntime(const compiler::CompiledProgram& compiled,
                 sim::Machine& machine, sim::Nvm& nvm);

    /**
     * Boot after a power cycle: runs the scheme's restore path, performs
     * GECKO's attack detection, and arms the re-enable probe.
     *
     * @param prevOnCycles cycles the machine executed during the
     *        previous power-on period (the timer-based detector's
     *        input, §VI-A: the compiler guarantees a *legitimate* period
     *        covers at least the largest region's WCET, so a shorter
     *        period means the backup or wake signal was forged).  Pass
     *        the default when no timer evidence is available.
     * @return cycles consumed by the boot path.
     */
    std::uint64_t onBoot(
        std::uint64_t prevOnCycles = ~std::uint64_t{0});

    /**
     * Is the JIT checkpoint protocol currently armed?  NVP: always.
     * Ratchet: never.  GECKO: unless disabled by attack detection.
     */
    bool jitActive() const;

    /**
     * The intermittent simulator reports every backup signal here (even
     * ignored ones) so the re-enable probe can see the monitor's
     * behaviour during the first region after boot.
     */
    void onBackupSignal() { sawBackupSinceBoot_ = true; }

    /**
     * The simulator reports committed-region progress after each
     * execution chunk; the runtime uses it to conclude the re-enable
     * probe ("no checkpoint signal within the initial region ⇒ the
     * threat is over", §VI-F).
     */
    void onProgress();

    /**
     * Whether the JIT image in NVM is a consistent roll-forward target
     * (complete, and no instruction has executed since it was taken).
     * Maintained by the simulator via the two notifications below.
     */
    void noteJitCheckpointComplete() { jitImageFresh_ = true; }
    void noteExecutionSinceCheckpoint() { jitImageFresh_ = false; }

    /**
     * Whether the attack-end probe is waiting on a commit.  While it is
     * disarmed, `onProgress` only forwards the commit count to the
     * defense controller, so while the controller's commitsGroup()
     * holds, one call after a fused machine run stands for the
     * per-quantum ones — one leg of the fused quantum kernel's
     * deferral guard (DESIGN.md §14).
     */
    bool probeArmed() const { return probeArmed_; }

    /**
     * Whether a backup signal was reported since the last boot.  Once
     * set, a concluding probe only disarms itself and cannot re-enable
     * JIT, so one `onProgress` after a fused machine run stands for the
     * per-quantum ones even while the probe is armed — the other leg
     * of the fused kernel's machine-deferral guard (DESIGN.md §14).
     */
    bool sawBackupSinceBoot() const { return sawBackupSinceBoot_; }

    /** Extra CTPL SRAM-snapshot words included in JIT restore cost. */
    void setJitRamWords(int words) { jitRamWords_ = words; }

    /**
     * The simulator reports a checkpoint save that failed transiently
     * (injected write fault / mid-burst disturbance) and is being
     * retried with backoff.
     */
    void noteCkptSaveRetry() { ++stats.ckptSaveRetries; }

    /**
     * The simulator reports that the bounded retry budget for a failing
     * checkpoint save ran out.  GECKO degrades gracefully: the JIT
     * protocol is disabled and recovery falls back to rollback mode
     * until the re-enable probe sees a quiet region (§VI-F machinery).
     */
    void noteCkptRetriesExhausted();

    /** Consecutive integrity rejects that trigger degradation. */
    static constexpr int kMaxIntegrityFailures = 3;

    /**
     * Enable/disable the two detection mechanisms individually
     * (ablation knob; both default on, as in the paper).
     */
    void
    setDetectors(bool ack, bool timer)
    {
        ackDetectorOn_ = ack;
        timerDetectorOn_ = timer;
    }

    /**
     * Attach the adaptive defense controller (may be null, the
     * static-paper default).  When attached, the runtime reports boot
     * detections, rollbacks, commits and retry exhaustion to it, and
     * the controller's mode gates the JIT protocol on top of the NVM
     * disable flag.
     */
    void setDefense(defense::DefenseController* defense)
    {
        defense_ = defense;
    }

    /** Simulator clock, fed before boot/notification calls so defense
     *  events carry sim time (runtime itself has no clock). */
    void setNow(double t) { now_ = t; }

    /**
     * Serialize/restore the runtime's mutable state: counters, the
     * image-freshness and integrity latches, and the re-enable probe.
     * Configuration (detector switches, RAM words, the WCET bound) is
     * reconstructed by the owner.
     */
    void archiveState(campaign::Archive& ar);

    RuntimeStats stats;

  private:
    std::uint64_t rollback();
    std::uint64_t jitRestore();
    /// Is this a scheme with the integrity-guarded restore paths?
    bool guarded() const;
    void degradeToRollback();

    const compiler::CompiledProgram* compiled_;
    sim::Machine* machine_;
    sim::Nvm* nvm_;
    defense::DefenseController* defense_ = nullptr;
    double now_ = 0.0;

    bool jitImageFresh_ = false;
    int jitRamWords_ = 0;
    /// Consecutive CRC/epoch rejects (volatile; reset by a valid
    /// restore).  Reaching kMaxIntegrityFailures degrades to rollback.
    int consecutiveIntegrityFailures_ = 0;
    std::uint64_t minOnCycles_ = 0;
    bool ackDetectorOn_ = true;
    bool timerDetectorOn_ = true;
    // Re-enable probe state (volatile; re-armed at each boot).
    bool probeArmed_ = false;
    bool sawBackupSinceBoot_ = false;
    std::uint64_t commitsAtProbeArm_ = 0;
};

}  // namespace gecko::runtime

#endif  // GECKO_RUNTIME_GECKO_RUNTIME_HPP_
