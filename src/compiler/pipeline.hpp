#ifndef GECKO_COMPILER_PIPELINE_HPP_
#define GECKO_COMPILER_PIPELINE_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/liveness.hpp"
#include "ir/program.hpp"

/**
 * @file
 * The GECKO compilation pipeline and its output metadata.
 *
 * The pipeline mirrors Section VI of the paper:
 *   1. idempotent region formation (cut memory anti-dependences, loop
 *      headers, calls and I/O),
 *   2. WCET analysis and splitting of regions that cannot finish within
 *      one worst-case power-on period,
 *   3. re-run of region formation (splitting may have broken a WARAW
 *      protection),
 *   4. checkpoint-store insertion for every region live-in register,
 *   5. checkpoint pruning via recovery blocks,
 *   6. double-buffer slot assignment by 2-colouring, fixing join-point
 *      conflicts with additional checkpoint regions.
 *
 * Region entry layout in the emitted code is
 * `kCkpt* kBoundary` — the checkpoint stores execute first and the
 * boundary *commits* the region (atomically stores the region id and
 * flushes staged I/O).  A power failure inside the entry sequence
 * therefore rolls back to the previous committed region, whose slots are
 * intact thanks to the 2-colouring.
 */

namespace gecko::compiler {

/** Recovery scheme variants evaluated by the paper. */
enum class Scheme {
    /// Roll-forward JIT checkpointing only (the CTPL/NVP baseline).
    kNvp,
    /// Pure compiler rollback, fine-grained regions, no pruning ([87]).
    kRatchet,
    /// GECKO with the pruning optimisation disabled (Fig. 11 ablation).
    kGeckoNoPrune,
    /// Full GECKO: hybrid JIT + pruned idempotent processing.
    kGecko,
};

/** @return human-readable scheme name. */
const char* schemeName(Scheme scheme);

/** schemeName's inverse; false for an unknown name. */
bool schemeFromName(const std::string& name, Scheme* out);

/** One remaining (unpruned) checkpoint store. */
struct CkptSpec {
    ir::Reg reg = 0;
    /// Static double-buffer colour in [0, kMaxSlots).
    int slot = 0;
    /// Index of the kCkpt instruction in the final program.
    std::size_t instrIdx = 0;
};

/**
 * A recovery block: straight-line code that recomputes one pruned
 * register's region-entry value from already-restored registers.
 */
struct RecoverySpec {
    ir::Reg reg = 0;
    /// Slice instructions in execution order (ALU/movi/read-only loads).
    std::vector<ir::Instr> code;
    /**
     * Other pruned registers of the same region whose recovery blocks
     * must run before this one (the slice terminates at them).
     */
    std::vector<ir::Reg> dependsOn;
};

/** Static metadata of one idempotent region. */
struct RegionInfo {
    int id = 0;
    /// Index of the first instruction of the entry sequence (first kCkpt,
    /// or the kBoundary itself when the region checkpoints nothing).
    std::size_t entryIdx = 0;
    /// Index of the committing kBoundary instruction.
    std::size_t boundaryIdx = 0;
    /// Registers live at region entry (= checkpointed ∪ pruned).
    RegMask liveIn = 0;
    /// Restore table: which slot holds each unpruned live-in.
    std::vector<CkptSpec> ckpts;
    /// Recovery blocks for pruned live-ins, in dependency order.
    std::vector<RecoverySpec> recovery;
    /**
     * For conflict-fix regions: id of the region whose restore table
     * covers registers this region does not checkpoint itself (sound
     * because nothing executes between the two commits); -1 otherwise.
     */
    int parentId = -1;
    /// Worst-case cycles from the entry sequence to the next boundary.
    long wcetCycles = 0;
};

/** Configuration of the compilation pipeline. */
struct PipelineConfig {
    /**
     * Worst-case power-on budget per region, in cycles.  Regions whose
     * WCET exceeds this bound are split (paper §VI-B step 3/4).
     */
    long maxRegionCycles = 20000;
    /// Disable pruning (kGeckoNoPrune uses this internally).
    bool enablePruning = true;
    /// Disable only the clean-checkpoint elimination half of pruning
    /// (ablation knob; no effect when enablePruning is false).
    bool enableCleanElim = true;
};

/** Aggregate static statistics of a compilation. */
struct CompileStats {
    int numRegions = 0;
    /// Checkpoint stores before pruning.
    int ckptsBeforePruning = 0;
    /// Checkpoint stores in the final binary (incl. colouring fix-ups).
    int ckptsAfterPruning = 0;
    int recoveryBlocks = 0;
    /// Total instructions across all recovery blocks.
    int recoveryInstrs = 0;
    /// Checkpoint stores removed by clean elimination (value already in
    /// the inherited slot — the degenerate pruning case).
    int cleanEliminated = 0;
    /// Instructions in the original program.
    int originalInstrs = 0;
    /// Instructions in the final program (code-size overhead numerator).
    int finalInstrs = 0;
    /// Entries in the runtime's region lookup table (≈ metadata cost).
    int lookupTableWords = 0;

    /** Binary size overhead vs. the uninstrumented program, in [0,∞). */
    double codeSizeOverhead() const
    {
        if (originalInstrs == 0)
            return 0.0;
        return static_cast<double>(finalInstrs - originalInstrs) /
               static_cast<double>(originalInstrs);
    }
};

/** Result of compiling a program for one scheme. */
struct CompiledProgram {
    ir::Program prog;
    Scheme scheme = Scheme::kNvp;
    std::vector<RegionInfo> regions;
    CompileStats stats;
    /**
     * The worst-case power-on budget the regions were sized against
     * (= PipelineConfig::maxRegionCycles; 0 for NVP/Ratchet).  Doubles
     * as the runtime's timer-detection bound: a legitimate power-on
     * period is at least this long by system design.
     */
    long minOnPeriodCycles = 0;

    /** Region metadata by id. */
    const RegionInfo& region(int id) const
    {
        return regions.at(static_cast<std::size_t>(id));
    }
};

/**
 * Compile `prog` for `scheme`.
 *
 * kNvp returns the program untouched (no regions).  kRatchet forms
 * fine-grained idempotent regions and checkpoints every live-in with no
 * pruning and no WCET splitting (the paper notes Ratchet regions can
 * exceed a charge cycle, which is exactly its DoS failure mode).
 * kGeckoNoPrune/kGecko run the full pipeline above.
 *
 * @throws std::runtime_error on programs the pipeline cannot handle
 *         (e.g. a single instruction exceeding the WCET bound).
 */
CompiledProgram compile(const ir::Program& prog, Scheme scheme,
                        const PipelineConfig& config = {});

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_PIPELINE_HPP_
