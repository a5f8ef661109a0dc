#ifndef GECKO_SIM_JIT_CHECKPOINT_HPP_
#define GECKO_SIM_JIT_CHECKPOINT_HPP_

#include <array>
#include <cstdint>

#include "sim/machine.hpp"
#include "sim/nvm.hpp"

/**
 * @file
 * The JIT (just-in-time) checkpoint protocol — TI's CTPL in miniature
 * (paper §II-B/C).
 *
 * On a backup signal the protocol saves the volatile state (registers,
 * PC, staged-I/O counters) word by word into the NVM's JIT area, using
 * the energy still buffered in the capacitor, and finally toggles the
 * ACK word.  The word-by-word structure is the attack surface: if the
 * buffer runs dry mid-way the ACK is never toggled and the area holds a
 * torn image.
 *
 * Integrity hardening: the image additionally carries an epoch word
 * (consume-once freshness, see Nvm::jitEpoch) and a CRC word covering
 * the context words, the epoch, and the ACK value.  imageValid() is the
 * guarded-restore predicate GECKO's runtime checks before rolling
 * forward; NVP restores blindly, which is exactly the paper's
 * vulnerability.
 */

namespace gecko::sim {

/** Outcome of one checkpoint attempt. */
struct JitResult {
    /// All words written and the ACK toggled.
    bool complete = false;
    int wordsWritten = 0;
    std::uint64_t cycles = 0;
};

/** Cycles to write one word of the JIT area (FRAM store + bookkeeping). */
inline constexpr int kJitStoreCycles = 4;

/** Fixed cycles of the wake-up/restore path. */
inline constexpr int kJitRestoreOverheadCycles = 60;

/** The roll-forward checkpoint protocol. */
class JitCheckpoint
{
  public:
    /**
     * Checkpoint `machine`'s volatile state into `nvm`.
     *
     * @param spendCycles any callable `bool(int cycles)`, called once
     *        per word with the word's cycle cost; returns false when the
     *        energy buffer died (the checkpoint is then abandoned,
     *        torn).  A template parameter rather than std::function so
     *        the simulator's per-word energy march inlines into the word
     *        loop (thousands of words per attempt).
     * @param ramPaddingWords extra cost-only words modelling CTPL's
     *        SRAM/peripheral snapshot (our machine keeps data in NVM, so
     *        these words carry cost and tear semantics but no content).
     *        They are written *before* the context words so most tears
     *        leave the previous image intact.
     */
    template <class SpendCycles>
    static JitResult checkpoint(const Machine& machine, Nvm& nvm,
                                SpendCycles&& spendCycles,
                                int ramPaddingWords = 0);

    /**
     * Restore volatile state from the JIT area (used on wake-up
     * regardless of image integrity — exactly what makes a torn image a
     * data-corruption vector for NVP).
     * @return cycles consumed.
     */
    static std::uint64_t restore(Machine& machine, const Nvm& nvm,
                                 int ramPaddingWords = 0);

    /**
     * Guarded-restore predicate: the image's CRC matches its contents
     * (incl. the ACK word, so torn writes and ACK corruption fail) and
     * its epoch equals the NVM's consume-once counter (so stale-image
     * substitution fails).  A virgin all-zero area validates.
     */
    static bool imageValid(const Nvm& nvm);

    /**
     * Mark the current image consumed (call after a successful guarded
     * restore): advances the epoch counter past the image's epoch so the
     * same image cannot be rolled forward into twice.
     */
    static void consumeImage(Nvm& nvm);

  private:
    using Image = std::array<std::uint32_t, Nvm::kJitWords>;
    /// Trace the start of one save attempt.
    static void noteSaveStart(const Nvm& nvm, int ramPaddingWords);
    /// The image in write order: regs, pc, staged I/O, epoch, CRC, ACK.
    static Image assembleImage(const Machine& machine, const Nvm& nvm);
    /// Advance the consume-once counter to the committed image's epoch.
    static void commitImage(Nvm& nvm, const Image& image,
                            JitResult& result);
};

template <class SpendCycles>
JitResult
JitCheckpoint::checkpoint(const Machine& machine, Nvm& nvm,
                          SpendCycles&& spendCycles, int ramPaddingWords)
{
    JitResult result;
    noteSaveStart(nvm, ramPaddingWords);

    // SRAM/peripheral snapshot first (cost only; see above).
    for (int i = 0; i < ramPaddingWords; ++i) {
        if (!spendCycles(kJitStoreCycles))
            return result;
        ++nvm.jitAreaWrites;
        ++result.wordsWritten;
        result.cycles += kJitStoreCycles;
    }

    const Image image = assembleImage(machine, nvm);
    for (std::size_t i = 0; i < Nvm::kJitWords; ++i) {
        if (!spendCycles(kJitStoreCycles))
            return result;  // torn: ACK not yet toggled
        nvm.jit[i] = image[i];
        ++nvm.jitAreaWrites;
        ++result.wordsWritten;
        result.cycles += kJitStoreCycles;
    }
    commitImage(nvm, image, result);
    return result;
}

}  // namespace gecko::sim

#endif  // GECKO_SIM_JIT_CHECKPOINT_HPP_
