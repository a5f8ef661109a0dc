#ifndef GECKO_SIM_NVM_HPP_
#define GECKO_SIM_NVM_HPP_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "compiler/slot_coloring.hpp"

/**
 * @file
 * Non-volatile memory of the intermittent system.
 *
 * Intermittent platforms use FRAM as their main memory (paper §II-B), so
 * program data lives here and survives power failures.  Besides the data
 * array the NVM holds the persistent control state of the two recovery
 * protocols:
 *  - the JIT checkpoint area (registers, PC, staged-I/O counters, ACK),
 *  - the compiler checkpoint slots (kMaxSlots double-buffer copies per
 *    register), the committed-region word, and the detection counters
 *    GECKO reads at boot.
 *
 * Word writes are atomic (FRAM semantics); multi-word sequences such as
 * the JIT checkpoint can be interrupted between words.
 *
 * Integrity hardening (fault-campaign defence): the JIT image carries
 * an epoch and a CRC word, and every compiler checkpoint slot is
 * stored as a guarded pair (value + CRC) with a shadow copy, so that
 * single-word NVM corruption — bit flips, torn writes, stale-copy
 * substitution — is detected at restore and repaired or rejected.
 * The threat model is physical disturbance of memory cells; an
 * adversary who can forge CRCs is out of scope (DESIGN.md §fault
 * model).
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::sim {

/** Number of architectural I/O ports. */
inline constexpr int kIoPorts = 4;

namespace detail {

/** Table for the reflected CRC-32 polynomial 0xEDB88320. */
struct Crc32Table {
    std::uint32_t entries[256];

    constexpr Crc32Table() : entries{}
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            entries[i] = c;
        }
    }
};

inline constexpr Crc32Table kCrcTable;

}  // namespace detail

/**
 * CRC-32 (reflected 0xEDB88320 polynomial) over a span of words, with
 * zero init and no final xor so that all-zero data yields 0 — a virgin
 * (zeroed) NVM image therefore validates against its zeroed CRC word.
 * Inline: every compiler-checkpoint slot store (a hot micro-op in the
 * region-dense workloads) computes a guarded-pair check word.
 */
inline std::uint32_t
crc32Words(const std::uint32_t* words, std::size_t n, std::uint32_t crc = 0)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t w = words[i];
        for (int b = 0; b < 4; ++b) {
            crc = detail::kCrcTable.entries[(crc ^ (w & 0xffu)) & 0xffu] ^
                  (crc >> 8);
            w >>= 8;
        }
    }
    return crc;
}

/** CRC-32 of a single word (guarded-slot check word). */
inline std::uint32_t
crc32Word(std::uint32_t value)
{
    return crc32Words(&value, 1);
}

/** Outcome of a guarded slot read. */
struct SlotRead {
    std::uint32_t value = 0;
    /// Primary copy failed its CRC; the shadow copy supplied the value.
    bool repaired = false;
    /// Both copies failed their CRCs; `value` is the (suspect) primary.
    bool unrecoverable = false;
};

/** Persistent memory and protocol state. */
class Nvm
{
  public:
    /// Words in the JIT checkpoint area, in write order: 16 regs, pc,
    /// in/out staging, epoch, CRC, and the ACK (written last).
    static constexpr std::size_t kJitWords = 16 + 1 + 2 * kIoPorts + 3;
    static constexpr std::size_t kJitAckIndex = kJitWords - 1;
    static constexpr std::size_t kJitCrcIndex = kJitWords - 2;
    static constexpr std::size_t kJitEpochIndex = kJitWords - 3;

    explicit Nvm(std::size_t dataWords) : data_(dataWords, 0) {}

    std::size_t dataWords() const { return data_.size(); }

    /** Load a data word. @throws std::out_of_range on bad addresses. */
    std::uint32_t load(std::uint32_t addr) const
    {
        if (addr >= data_.size())
            throw std::out_of_range("NVM load out of range");
        return data_[addr];
    }

    /** Store a data word. @throws std::out_of_range on bad addresses. */
    void store(std::uint32_t addr, std::uint32_t value)
    {
        if (addr >= data_.size())
            throw std::out_of_range("NVM store out of range");
        data_[addr] = value;
    }

    /** True if `addr` is a valid data address. */
    bool inRange(std::uint32_t addr) const { return addr < data_.size(); }

    /**
     * Serialize/restore the whole persistent image: data words, the JIT
     * area, checkpoint slots (+CRC/shadow copies), protocol counters,
     * and the endurance accounting.  The data size is a configuration
     * guard — a snapshot of a differently-sized NVM is rejected.
     */
    void archiveState(campaign::Archive& ar);

    /** Raw data access for workload setup / golden comparisons. */
    const std::vector<std::uint32_t>& data() const { return data_; }
    std::vector<std::uint32_t>& data() { return data_; }

    // ------------------------------------------------------------------
    // JIT checkpoint area (roll-forward protocol).
    // ------------------------------------------------------------------
    std::array<std::uint32_t, kJitWords> jit{};
    /**
     * Consume-once freshness counter for the JIT image.  A completing
     * checkpoint stamps the image with `jitEpoch + 1` and then advances
     * this counter to match; a guarded restore additionally advances it
     * past the image's epoch, so an image can be rolled forward into at
     * most once.  Stale-image substitution (re-presenting an older,
     * internally consistent image) then fails the epoch comparison.
     */
    std::uint32_t jitEpoch = 0;

    // ------------------------------------------------------------------
    // Endurance accounting (related work [19], Cronin et al.: frequent
    // checkpoints wear out the NV checkpoint storage; a checkpoint-churn
    // EMI attack is also a wear-out attack).  Writers bump these.
    // ------------------------------------------------------------------
    /// Word-writes into the JIT checkpoint area (incl. SRAM-snapshot
    /// padding words).
    std::uint64_t jitAreaWrites = 0;
    /// Word-writes into the compiler checkpoint slots.
    std::uint64_t slotWrites = 0;

    // ------------------------------------------------------------------
    // Compiler checkpoint storage (rollback protocol).
    // ------------------------------------------------------------------
    /// Double-buffered register slots: slots[reg][colour].
    std::array<std::array<std::uint32_t, compiler::kMaxSlots>, 16> slots{};
    /// CRC-32 check word of each primary slot value.
    std::array<std::array<std::uint32_t, compiler::kMaxSlots>, 16> slotCrc{};
    /// Shadow copy of each slot value (guarded-slot redundancy).
    std::array<std::array<std::uint32_t, compiler::kMaxSlots>, 16>
        slotShadow{};
    /// CRC-32 check word of each shadow slot value.
    std::array<std::array<std::uint32_t, compiler::kMaxSlots>, 16>
        slotShadowCrc{};

    /**
     * Guarded slot store: writes the value with its CRC check word plus
     * a shadow pair.  Modelled as two wide FRAM line writes (the cycle
     * cost of kCkpt is unchanged; the endurance counter records both
     * lines).
     */
    void writeSlot(int reg, int slot, std::uint32_t value)
    {
        auto r = static_cast<std::size_t>(reg);
        auto s = static_cast<std::size_t>(slot);
        std::uint32_t crc = crc32Word(value);
        slots[r][s] = value;
        slotCrc[r][s] = crc;
        slotShadow[r][s] = value;
        slotShadowCrc[r][s] = crc;
        slotWrites += 2;
    }

    /**
     * Guarded slot load: validates the primary (value, CRC) pair and
     * falls back to the shadow pair when the primary is corrupt.  A
     * virgin (all-zero) slot validates, since crc32Word(0) == 0.
     *
     * Multi-word hits on the same slot pair recover through the cross
     * checks: the four stored words (two values, two check words) carry
     * enough redundancy that any intact value word still validates
     * against either intact check word, and when both check words are
     * hit the two independently stored value words vouch for each other
     * by agreement.  Only disturbances that corrupt a value word *and*
     * every witness for it remain unrecoverable — and are reported as
     * such rather than silently consumed.
     */
    SlotRead readSlotGuarded(int reg, int slot) const
    {
        auto r = static_cast<std::size_t>(reg);
        auto s = static_cast<std::size_t>(slot);
        SlotRead out;
        out.value = slots[r][s];
        if (crc32Word(slots[r][s]) == slotCrc[r][s])
            return out;
        if (crc32Word(slotShadow[r][s]) == slotShadowCrc[r][s]) {
            out.value = slotShadow[r][s];
            out.repaired = true;
            return out;
        }
        // Cross-pair recovery: a value word whose own check word was
        // hit can still be vouched for by the sibling pair's check word.
        if (crc32Word(slots[r][s]) == slotShadowCrc[r][s]) {
            out.repaired = true;
            return out;
        }
        if (crc32Word(slotShadow[r][s]) == slotCrc[r][s]) {
            out.value = slotShadow[r][s];
            out.repaired = true;
            return out;
        }
        // Both check words corrupt but the two value words — written to
        // distinct FRAM lines — agree: accept the agreed value.
        if (slots[r][s] == slotShadow[r][s]) {
            out.repaired = true;
            return out;
        }
        out.unrecoverable = true;
        return out;
    }

    /**
     * Scrub a repaired slot: rewrite all four words of the pair
     * coherently so a surviving latent corruption cannot combine with a
     * later disturbance of the other copy.  Same cost model as
     * writeSlot (two wide FRAM line writes).
     */
    void scrubSlot(int reg, int slot, std::uint32_t value)
    {
        writeSlot(reg, slot, value);
    }
    /// Id of the last committed region (written atomically by kBoundary).
    std::uint32_t committedRegion = 0;
    /// Total boundary commits (region-completion detector input).
    std::uint32_t commitCount = 0;

    // ------------------------------------------------------------------
    // Boot-protocol state (GECKO detection, §VI-A).
    // ------------------------------------------------------------------
    std::uint32_t bootCount = 0;
    std::uint32_t lastBootAck = 0;
    std::uint32_t commitsAtLastBoot = 0;
    /// GECKO runtime: 1 while the JIT protocol is disabled.
    std::uint32_t jitDisabledFlag = 0;

    // ------------------------------------------------------------------
    // Committed I/O progress counters (exactly-once I/O, see Machine).
    // ------------------------------------------------------------------
    std::array<std::uint32_t, kIoPorts> inCount{};
    std::array<std::uint32_t, kIoPorts> outCount{};

    /// Committed output words over all ports: the exactly-once I/O
    /// witness carried by kCompletion trace events.
    std::uint64_t committedOutTotal() const
    {
        std::uint64_t total = 0;
        for (std::uint32_t n : outCount)
            total += n;
        return total;
    }

  private:
    std::vector<std::uint32_t> data_;
};

}  // namespace gecko::sim

#endif  // GECKO_SIM_NVM_HPP_
