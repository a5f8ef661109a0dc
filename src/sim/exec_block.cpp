#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "compiler/block_metadata.hpp"
#include "sim/machine.hpp"
#include "trace/trace.hpp"

/**
 * @file
 * The block-compiled execution tier (ExecBackend::kBlock).
 *
 * Three ideas, stacked:
 *
 *  1. *Superblocks.*  The predecoded program is partitioned into
 *     straight-line blocks at compiler::superblockLeaders boundaries
 *     (CFG leaders + region entry sequences).  Block entries are
 *     profiled in the dispatch loop; at kHotThreshold entries a block
 *     is compiled into a micro-op stream.
 *
 *  2. *Threaded superinstructions.*  Compiled blocks execute as
 *     threaded code — each micro-op ends in an indirect `goto` to the
 *     next handler — with operand forms (imm/reg), I/O staging mode and
 *     shift masks specialized at compile time, and common pairs (loop
 *     latches, the masked-window address pattern) fused into single
 *     handlers.  Cycle/instruction accounting happens once per block,
 *     not per op; each micro-op carries its cost prefix so the fault
 *     path can reconstruct exact per-instruction counts.
 *
 *  3. *Precise deoptimization.*  A block runs threaded only when its
 *     whole worst-case cost fits the remaining cycle budget
 *     (`cycles + cost <= budget`).  Since the budget is the energy- and
 *     clock-bounded quantum computed by the intermittent simulator
 *     (Capacitor::affordableCycles), this entry guard is exactly the
 *     conservative block-entry energy check: a superblock can never run
 *     past the point where the capacitor could cross an armed
 *     threshold.  Budget tails, cold blocks, and mid-block entry PCs
 *     (JIT-checkpoint image restores land anywhere) fall back to
 *     stepDecoded, a per-instruction interpreter over the predecoded
 *     program, and re-enter block dispatch after every instruction — so
 *     a quantum that stopped mid-block realigns to the next leader
 *     within a few instructions instead of losing the whole following
 *     quantum.  Every architectural event — faults, halts, commits,
 *     trace events — happens at the same instruction with the same
 *     counters as the reference step() tier.  machine_test and
 *     fuzz_test assert this equivalence.
 */

// Threaded dispatch needs GNU computed goto.  Elsewhere the block tier
// steps every instruction through stepDecoded — identical semantics,
// lower throughput.
#if defined(__GNUC__) || defined(__clang__)
#define GECKO_COMPUTED_GOTO 1
#else
#define GECKO_COMPUTED_GOTO 0
#endif

namespace gecko::sim {

using ir::Opcode;



namespace {

/** Binary-ALU micro-op kind (relies on matching enum layouts). */
UopKind
aluKind(Opcode op, bool useImm)
{
    const int base =
        static_cast<int>(useImm ? UopKind::kAddRI : UopKind::kAddRR);
    return static_cast<UopKind>(base + (static_cast<int>(op) -
                                        static_cast<int>(Opcode::kAdd)));
}

/** Conditional-branch terminator kind. */
UopKind
branchKind(Opcode op)
{
    return static_cast<UopKind>(static_cast<int>(UopKind::kBeq) +
                                (static_cast<int>(op) -
                                 static_cast<int>(Opcode::kBeq)));
}

/** Fused latch kind for `add/sub rd,rs,#imm ; b<cc> rd,rb,target`. */
UopKind
latchKind(Opcode alu, Opcode branch)
{
    const int base = static_cast<int>(
        alu == Opcode::kAdd ? UopKind::kAddiBeq : UopKind::kSubiBeq);
    return static_cast<UopKind>(base + (static_cast<int>(branch) -
                                        static_cast<int>(Opcode::kBeq)));
}

bool
isTerminatorKind(UopKind kind)
{
    return kind >= UopKind::kBeq;
}

/**
 * Passes through a self-counted `add rC,rC,#1 ; blt rC,rB,start` latch
 * until it falls through, from counter `cnt` and bound `bnd`.  The body
 * is a do-while, so at least one.  The add wraps like the ISA's: a
 * counter at INT32_MAX steps to INT32_MIN, which is still below any
 * bound but INT32_MIN, so the loop runs on for up to 2^32 passes.
 */
std::uint64_t
countedExitTrips(std::uint32_t cnt, std::uint32_t bnd)
{
    const std::int64_t c = static_cast<std::int32_t>(cnt);
    const std::int64_t b = static_cast<std::int32_t>(bnd);
    if (c < b)
        return static_cast<std::uint64_t>(b - c);
    if (c < INT32_MAX || b == INT32_MIN)
        return 1;
    return 1 + static_cast<std::uint64_t>(b - INT32_MIN);
}

}  // namespace

void
Machine::ensureBlocks()
{
    if (blocksBuilt_)
        return;
    blocksBuilt_ = true;
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    if (size == 0)
        return;
    std::vector<std::uint32_t> leaders = compiler::superblockLeaders(*prog_);
    blocks_.clear();
    blocks_.reserve(leaders.size());
    blockAt_.assign(size, 0);
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        SuperBlock b;
        b.start = leaders[i];
        const std::uint32_t end =
            i + 1 < leaders.size() ? leaders[i + 1] : size;
        b.len = end - b.start;
        for (std::uint32_t pc = b.start; pc < end; ++pc) {
            b.cost += decoded_[pc].cost;
            blockAt_[pc] = static_cast<std::uint32_t>(blocks_.size());
        }
        blocks_.push_back(std::move(b));
    }
}

void
Machine::invalidateBlockCache()
{
    for (SuperBlock& b : blocks_) {
        b.compiled = false;
        b.threaded = false;
        b.execCount = 0;
        b.uopStart = 0;
        b.uopCount = 0;
    }
    uopPool_.clear();
    uopPool_.shrink_to_fit();
}

std::size_t
Machine::compiledUopCount(UopKind kind) const
{
    return static_cast<std::size_t>(
        std::count_if(uopPool_.begin(), uopPool_.end(),
                      [kind](const Uop& u) { return u.kind == kind; }));
}

void
Machine::compileBlock(SuperBlock& b)
{
    const Decoded* code = decoded_.data();
    const bool staged = stagedIo_;
    std::vector<Uop>& uops = uopScratch_;
    uops.clear();
    uops.reserve(b.len + 1);
    std::uint32_t prefix = 0;
    std::uint32_t i = 0;
    while (i < b.len) {
        const Decoded& d = code[b.start + i];
        Uop u;
        u.rd = d.rd;
        u.rs1 = d.rs1;
        u.rs2 = d.rs2;
        u.imm = d.imm;
        u.aux = i;  // default: own index, for exact fault accounting
        prefix += d.cost;
        u.costPrefix = prefix;
        switch (d.op) {
          case Opcode::kNop:
            u.kind = UopKind::kNop;
            break;
          case Opcode::kMovi:
            u.kind = UopKind::kMovi;
            break;
          case Opcode::kMov:
            u.kind = UopKind::kMov;
            break;
          case Opcode::kNot:
            u.kind = UopKind::kNot;
            break;
          case Opcode::kNeg:
            u.kind = UopKind::kNeg;
            break;
          case Opcode::kLoad:
            u.kind = UopKind::kLoad;
            break;
          case Opcode::kStore:
            u.kind = UopKind::kStore;
            break;
          case Opcode::kIn:
          case Opcode::kOut: {
            // Ports are immediates: validate once here instead of per
            // execution (kBadIo faults exactly like the other tiers).
            const int port = static_cast<std::int32_t>(d.imm);
            if (port < 0 || port >= kIoPorts)
                u.kind = UopKind::kBadIo;
            else if (d.op == Opcode::kIn)
                u.kind = staged ? UopKind::kInStaged : UopKind::kInDirect;
            else
                u.kind = staged ? UopKind::kOutStaged : UopKind::kOutDirect;
            break;
          }
          case Opcode::kBoundary:
            u.kind =
                staged ? UopKind::kBoundaryStaged : UopKind::kBoundaryPlain;
            break;
          case Opcode::kCkpt:
            u.kind = UopKind::kCkpt;
            break;
          case Opcode::kJmp:
            u.kind = UopKind::kJmp;
            u.aux = d.target;
            break;
          case Opcode::kCall:
            u.kind = UopKind::kCall;
            u.aux = d.target;
            u.imm = b.start + i + 1;  // link value
            break;
          case Opcode::kRet:
            u.kind = UopKind::kRet;
            break;
          case Opcode::kHalt:
            u.kind = UopKind::kHalt;
            break;
          default:
            if (ir::isCondBranch(d.op)) {
                u.kind = branchKind(d.op);
                u.aux = d.target;
                break;
            }
            // Binary ALU.  Latch fusion: an immediate add/sub feeding
            // the block's own conditional terminator becomes one
            // superinstruction (the inner-loop back edge).
            if ((d.op == Opcode::kAdd || d.op == Opcode::kSub) &&
                d.useImm && i + 2 == b.len) {
                const Decoded& t = code[b.start + i + 1];
                if (ir::isCondBranch(t.op) && t.rs1 == d.rd) {
                    prefix += t.cost;
                    u.kind = latchKind(d.op, t.op);
                    u.rs2 = t.rs2;
                    u.aux = t.target;
                    u.costPrefix = prefix;
                    uops.push_back(u);
                    i += 2;
                    continue;
                }
            }
            // Window-address fusion: `and rT,rS,#m ; add rD,rT,#b`
            // (the bounded load/store index idiom).
            if (d.op == Opcode::kAnd && d.useImm && i + 1 < b.len) {
                const Decoded& n = code[b.start + i + 1];
                if (n.op == Opcode::kAdd && n.useImm && n.rs1 == d.rd) {
                    prefix += n.cost;
                    u.kind = UopKind::kAndiAddi;
                    u.rs2 = d.rd;
                    u.rd = n.rd;
                    u.aux = n.imm;
                    u.costPrefix = prefix;
                    uops.push_back(u);
                    i += 2;
                    continue;
                }
            }
            u.kind = aluKind(d.op, d.useImm);
            // Shift amounts are masked to 5 bits by the ISA; bake the
            // mask into the immediate form.
            if (d.useImm &&
                (d.op == Opcode::kShl || d.op == Opcode::kShr))
                u.imm = d.imm & 31u;
            break;
        }
        uops.push_back(u);
        ++i;
    }
    // A block that ends at a leader (not at a terminator) falls through.
    if (uops.empty() || !isTerminatorKind(uops.back().kind)) {
        Uop u;
        u.kind = UopKind::kFallThrough;
        u.aux = b.start + b.len;
        u.costPrefix = prefix;
        uops.push_back(u);
    }
    // Corpus-selected superinstruction fusion (see superblock.hpp): one
    // greedy peephole pass merging chained ALU pairs and ALU+latch
    // triples.  A fused uop takes the second op's cost prefix, and
    // fusion never renumbers instructions, so the fault path's exact
    // per-instruction reconstruction is unchanged for every later uop.
    if (uops.size() >= 2) {
        std::vector<Uop> fused;
        fused.reserve(uops.size());
        std::size_t k = 0;
        while (k < uops.size()) {
            const Uop& a = uops[k];
            if (k + 1 < uops.size()) {
                const Uop& n = uops[k + 1];
                UopKind fk = UopKind::kNumUopKinds_;
                bool srcSwap = false;
                const bool leadsRI = a.kind == UopKind::kMulRI ||
                                     a.kind == UopKind::kAndRI ||
                                     a.kind == UopKind::kShrRI ||
                                     a.kind == UopKind::kMovi;
                if (leadsRI && n.rs1 == a.rd) {
                    if (a.kind == UopKind::kMulRI &&
                        n.kind == UopKind::kAddRI)
                        fk = UopKind::kMulRIAddRI;
                    else if (a.kind == UopKind::kShrRI &&
                             n.kind == UopKind::kXorRR)
                        fk = UopKind::kShrRIXorRR;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kShrRI)
                        fk = UopKind::kAndRIShrRI;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kAndRIAddRR;
                    else if (a.kind == UopKind::kMulRI &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kMulRIAddRR;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kXorRR)
                        fk = UopKind::kAndRIXorRR;
                    else if (a.kind == UopKind::kMovi &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kMoviAddRR;
                } else if (leadsRI && n.rs2 == a.rd) {
                    // xor/add are commutative, so a pair whose second op
                    // consumes the fused value through rs2 folds the
                    // same way with its sources swapped.
                    if (a.kind == UopKind::kShrRI &&
                        n.kind == UopKind::kXorRR) {
                        fk = UopKind::kShrRIXorRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kAndRI &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kAndRIAddRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kMulRI &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kMulRIAddRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kAndRI &&
                               n.kind == UopKind::kXorRR) {
                        fk = UopKind::kAndRIXorRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kMovi &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kMoviAddRR;
                        srcSwap = true;
                    }
                }
                if (fk == UopKind::kNumUopKinds_) {
                    if (a.kind == UopKind::kAddRR &&
                        n.kind == UopKind::kLoad && n.rs1 == a.rd)
                        fk = UopKind::kAddRRLoad;
                    else if (a.kind == UopKind::kMovi &&
                             n.kind == UopKind::kFallThrough)
                        fk = UopKind::kMoviFall;
                    else if (a.kind == UopKind::kAddRI &&
                             n.kind == UopKind::kJmp)
                        fk = UopKind::kAddRIJmp;
                }
                if (n.kind == UopKind::kAddiBlt && n.rd == n.rs1) {
                    if (a.kind == UopKind::kAddRR)
                        fk = UopKind::kAddRRAddiBlt;
                    else if (a.kind == UopKind::kShrRI)
                        fk = UopKind::kShrRIAddiBlt;
                }
                if (fk != UopKind::kNumUopKinds_) {
                    Uop f = a;
                    f.kind = fk;
                    f.rd2 = n.rd;
                    f.rx = srcSwap ? n.rs1 : n.rs2;
                    f.imm2 = n.imm;
                    f.aux = n.aux;
                    f.costPrefix = n.costPrefix;
                    fused.push_back(f);
                    k += 2;
                    continue;
                }
            }
            fused.push_back(a);
            ++k;
        }
        uops.swap(fused);
    }
    // Second combine pass over the fused stream: the base-plus-index
    // address pairs formed above feed the window-array loads/stores of
    // the pointer-chasing workloads, and checkpoint stores cluster at
    // region entries (every live register in one run) — both fold into
    // one more dispatch saving.  `rx != rd` keeps the index source
    // readable after the address register is written.
    if (uops.size() >= 2) {
        std::vector<Uop> fused;
        fused.reserve(uops.size());
        std::size_t k = 0;
        while (k < uops.size()) {
            const Uop& a = uops[k];
            if (k + 1 < uops.size()) {
                const Uop& n = uops[k + 1];
                UopKind fk = UopKind::kNumUopKinds_;
                if (a.kind == UopKind::kMoviAddRR && a.rd == a.rd2 &&
                    a.rx != a.rd && n.rs1 == a.rd &&
                    (n.kind == UopKind::kLoad || n.kind == UopKind::kStore))
                    fk = n.kind == UopKind::kLoad ? UopKind::kMoviAddLoad
                                                  : UopKind::kMoviAddStore;
                else if (a.kind == UopKind::kCkpt &&
                         n.kind == UopKind::kCkpt)
                    fk = UopKind::kCkptCkpt;
                if (fk != UopKind::kNumUopKinds_) {
                    Uop f = a;
                    f.kind = fk;
                    if (fk == UopKind::kMoviAddLoad)
                        f.rd2 = n.rd;
                    else if (fk == UopKind::kMoviAddStore)
                        f.rs2 = n.rs2;
                    else
                        f.rd2 = n.rs1;
                    f.imm2 = n.imm;
                    f.aux = n.aux;
                    f.costPrefix = n.costPrefix;
                    fused.push_back(f);
                    k += 2;
                    continue;
                }
            }
            fused.push_back(a);
            ++k;
        }
        uops.swap(fused);
    }
    // Loop superinstructions (DESIGN.md §12): a hot self-loop whose body
    // is pure ALU and whose exit is counted collapses into one micro-op
    // that iterates natively, bounded by the remaining cycle budget.
    // All written registers must be pairwise distinct and the read-only
    // bound registers must not alias them, so the native loop's final
    // register image matches per-uop execution exactly.
    const auto distinct = [](std::initializer_list<std::uint8_t> rs) {
        std::uint32_t seen = 0;
        for (std::uint8_t r : rs) {
            if (seen & (1u << r))
                return false;
            seen |= 1u << r;
        }
        return true;
    };
    if (uops.size() == 3 && uops[0].kind == UopKind::kMulRIAddRI &&
        uops[1].kind == UopKind::kShrRIXorRR &&
        uops[2].kind == UopKind::kAddRRAddiBlt) {
        const Uop& m = uops[0];
        const Uop& x = uops[1];
        const Uop& l = uops[2];
        const std::uint8_t s = m.rd;
        if (m.rs1 == s && m.rd2 == s && x.rs1 == s && x.rd2 == s &&
            x.rx == s && l.rs2 == s && l.rd == l.rs1 && l.imm2 == 1 &&
            l.aux == b.start &&
            distinct({s, x.rd, l.rd, l.rd2, l.rx})) {
            Uop f;
            f.kind = UopKind::kLcgAccLoop;
            f.rd = s;         // hash state
            f.rs1 = x.rd;     // shifted temporary
            f.rs2 = l.rd;     // accumulator
            f.rd2 = l.rd2;    // loop counter
            f.rx = l.rx;      // loop bound (read-only)
            f.imm = m.imm;    // multiplier
            f.imm2 = m.imm2;  // increment
            f.aux = x.imm;    // shift amount
            f.costPrefix = b.cost;
            uops.assign(1, f);
        }
    }
    if (b.len == 3 && b.start + 6 <= static_cast<std::uint32_t>(decoded_.size())) {
        const Decoded* d = code + b.start;
        if (d[0].op == Opcode::kAnd && d[0].useImm && d[0].imm == 1 &&
            d[1].op == Opcode::kShr && d[1].useImm &&
            (d[1].imm & 31u) == 1 && d[1].rd == d[1].rs1 &&
            d[1].rs1 == d[0].rs1 && d[2].op == Opcode::kBeq &&
            d[2].rs1 == d[0].rd && d[2].target == b.start + 4 &&
            d[3].op == Opcode::kXor && d[3].useImm &&
            d[3].rd == d[0].rs1 && d[3].rs1 == d[0].rs1 &&
            d[4].op == Opcode::kSub && d[4].useImm && d[4].imm == 1 &&
            d[4].rd == d[4].rs1 && d[5].op == Opcode::kBne &&
            d[5].rs1 == d[4].rd && d[5].target == b.start &&
            distinct({d[0].rd, d[0].rs1, d[4].rd}) &&
            distinct({d[2].rs2, d[0].rd, d[0].rs1, d[4].rd}) &&
            distinct({d[5].rs2, d[0].rd, d[0].rs1, d[4].rd})) {
            const std::uint32_t cTak =
                d[0].cost + d[1].cost + d[2].cost + d[4].cost + d[5].cost;
            Uop f;
            f.kind = UopKind::kCrcBitLoop;
            f.rd = d[0].rd;    // bit register
            f.rs1 = d[0].rs1;  // shift register
            f.rs2 = d[4].rd;   // bit counter
            f.rd2 = d[2].rs2;  // beq compare register (read-only)
            f.rx = d[5].rs2;   // bne compare register (read-only)
            f.imm = d[3].imm;  // polynomial
            f.imm2 = cTak;     // taken-path cycles per iteration
            f.aux = cTak + d[3].cost;  // not-taken-path cycles
            f.costPrefix = b.cost;
            uops.assign(1, f);
            // Worst-case single iteration: the block-entry budget guard
            // must cover a whole not-taken pass.
            b.cost = f.aux;
        }
    }
    if (uops.size() == 6 && uops[0].kind == UopKind::kSubRR &&
        uops[1].kind == UopKind::kAndRI &&
        uops[2].kind == UopKind::kMoviAddLoad &&
        uops[3].kind == UopKind::kMoviAddLoad &&
        uops[4].kind == UopKind::kMulRR &&
        uops[5].kind == UopKind::kAddRRAddiBlt) {
        const Uop& su = uops[0];  // sub rI,rS,rT
        const Uop& an = uops[1];  // and rI,rI,#m
        const Uop& l0 = uops[2];  // rA = ring + rI ; load rX,[rA+0]
        const Uop& l1 = uops[3];  // rA = taps + rT ; load rY,[rA+0]
        const Uop& mu = uops[4];  // mul rX,rX,rY
        const Uop& lt = uops[5];  // add rAcc,rAcc,rX ; rT+=1 ; blt
        if (an.rs1 == su.rd && an.rd == su.rd && (an.imm >> 8) == 0 &&
            l0.rx == su.rd && l0.imm2 == 0 && l1.rd == l0.rd &&
            l1.rx == su.rs2 && l1.imm2 == 0 && mu.rd == l0.rd2 &&
            mu.rs1 == l0.rd2 && mu.rs2 == l1.rd2 && lt.rd == lt.rs1 &&
            lt.rs2 == mu.rd && lt.rd2 == su.rs2 && lt.imm2 == 1 &&
            lt.aux == b.start &&
            distinct({su.rd, l0.rd, l0.rd2, l1.rd2, lt.rd, lt.rd2}) &&
            distinct({su.rs1, lt.rx, su.rd, l0.rd, l0.rd2, l1.rd2, lt.rd,
                      lt.rd2})) {
            Uop f;
            f.kind = UopKind::kFirMacLoop;
            f.rd = lt.rd;          // accumulator
            f.rs1 = su.rs1;        // sample index (read-only)
            f.rs2 = su.rd;         // masked ring index
            f.rd2 = lt.rd2;        // loop counter
            f.rx = lt.rx;          // loop bound (read-only)
            f.imm = l0.imm;        // ring base
            f.aux = l1.imm;        // taps base
            f.imm2 = static_cast<std::uint32_t>(l0.rd) |
                     (static_cast<std::uint32_t>(l0.rd2) << 8) |
                     (static_cast<std::uint32_t>(l1.rd2) << 16) |
                     (an.imm << 24);
            f.costPrefix = b.cost;
            uops.assign(1, f);
        }
    }
    if (b.len == 5) {
        const Decoded* d = code + b.start;
        if (d[0].op == Opcode::kAnd && d[0].useImm && d[0].imm == 1 &&
            d[1].op == Opcode::kAdd && !d[1].useImm &&
            d[1].rs1 == d[1].rd && d[1].rs2 == d[0].rd &&
            d[2].op == Opcode::kShr && d[2].useImm &&
            (d[2].imm & 31u) == 1 && d[2].rd == d[0].rs1 &&
            d[2].rs1 == d[0].rs1 && d[3].op == Opcode::kAdd &&
            d[3].useImm && d[3].imm == 1 && d[3].rs1 == d[3].rd &&
            d[4].op == Opcode::kBlt && d[4].rs1 == d[3].rd &&
            d[4].target == b.start &&
            distinct({d[0].rd, d[0].rs1, d[1].rd, d[3].rd, d[4].rs2})) {
            Uop f;
            f.kind = UopKind::kPopcntLoop;
            f.rd = d[1].rd;    // accumulator
            f.rs1 = d[0].rs1;  // shift register
            f.rs2 = d[0].rd;   // bit register
            f.rd2 = d[3].rd;   // loop counter
            f.rx = d[4].rs2;   // loop bound (read-only)
            f.costPrefix = b.cost;
            uops.assign(1, f);
        }
    }
    b.uopStart = static_cast<std::uint32_t>(uopPool_.size());
    b.uopCount = static_cast<std::uint32_t>(uops.size());
    uopPool_.insert(uopPool_.end(), uops.begin(), uops.end());
    b.compiled = true;
    b.threaded = false;
}


Machine::StepExit
Machine::stepDecoded(std::uint32_t& pc, std::uint64_t& cycles,
                     std::uint64_t& instrs)
{
    // One predecoded instruction (the caller checks pc < size): the
    // block backend's precise fallback for budget tails, cold blocks
    // and mid-block entry pcs.  The caller re-enters block dispatch
    // after every instruction, so execution realigns with the next
    // leader.
    const Decoded& d = decoded_[pc];
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    const bool staged = stagedIo_;
    Nvm& nvm = *nvm_;
    std::uint32_t* const regs = regs_.data();
    cycles += d.cost;
    ++instrs;
    std::uint32_t next = pc + 1;
    switch (d.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMovi:
        regs[d.rd] = d.imm;
        break;
      case Opcode::kMov:
        regs[d.rd] = regs[d.rs1];
        break;
      case Opcode::kAdd:
        regs[d.rd] = regs[d.rs1] + (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kSub:
        regs[d.rd] = regs[d.rs1] - (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kMul:
        regs[d.rd] = regs[d.rs1] * (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kDivu: {
        const std::uint32_t v = d.useImm ? d.imm : regs[d.rs2];
        regs[d.rd] = v == 0 ? 0xffffffffu : regs[d.rs1] / v;
        break;
      }
      case Opcode::kRemu: {
        const std::uint32_t v = d.useImm ? d.imm : regs[d.rs2];
        regs[d.rd] = v == 0 ? regs[d.rs1] : regs[d.rs1] % v;
        break;
      }
      case Opcode::kAnd:
        regs[d.rd] = regs[d.rs1] & (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kOr:
        regs[d.rd] = regs[d.rs1] | (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kXor:
        regs[d.rd] = regs[d.rs1] ^ (d.useImm ? d.imm : regs[d.rs2]);
        break;
      case Opcode::kShl:
        regs[d.rd] = regs[d.rs1] << ((d.useImm ? d.imm : regs[d.rs2]) & 31u);
        break;
      case Opcode::kShr:
        regs[d.rd] = regs[d.rs1] >> ((d.useImm ? d.imm : regs[d.rs2]) & 31u);
        break;
      case Opcode::kNot:
        regs[d.rd] = ~regs[d.rs1];
        break;
      case Opcode::kNeg:
        regs[d.rd] = 0u - regs[d.rs1];
        break;
      case Opcode::kLoad: {
        const std::uint32_t addr = regs[d.rs1] + d.imm;
        if (!nvm.inRange(addr))
            return StepExit::kFaulted;
        regs[d.rd] = nvm.load(addr);
        break;
      }
      case Opcode::kStore: {
        const std::uint32_t addr = regs[d.rs1] + d.imm;
        if (!nvm.inRange(addr))
            return StepExit::kFaulted;
        nvm.store(addr, regs[d.rs2]);
        break;
      }
      case Opcode::kBeq:
        if (regs[d.rs1] == regs[d.rs2])
            next = d.target;
        break;
      case Opcode::kBne:
        if (regs[d.rs1] != regs[d.rs2])
            next = d.target;
        break;
      case Opcode::kBlt:
        if (static_cast<std::int32_t>(regs[d.rs1]) <
            static_cast<std::int32_t>(regs[d.rs2]))
            next = d.target;
        break;
      case Opcode::kBge:
        if (static_cast<std::int32_t>(regs[d.rs1]) >=
            static_cast<std::int32_t>(regs[d.rs2]))
            next = d.target;
        break;
      case Opcode::kBltu:
        if (regs[d.rs1] < regs[d.rs2])
            next = d.target;
        break;
      case Opcode::kBgeu:
        if (regs[d.rs1] >= regs[d.rs2])
            next = d.target;
        break;
      case Opcode::kJmp:
        next = d.target;
        break;
      case Opcode::kCall:
        regs[ir::kLinkReg] = pc + 1;
        next = d.target;
        break;
      case Opcode::kRet:
        next = regs[ir::kLinkReg];
        if (next > size)
            return StepExit::kFaulted;
        break;
      case Opcode::kIn: {
        const int port = static_cast<std::int32_t>(d.imm);
        if (port < 0 || port >= kIoPorts)
            return StepExit::kFaulted;
        const auto pi = static_cast<std::size_t>(port);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[d.rd] = io_->input(port).valueAt(index);
        if (staged)
            ++pendingIn_[pi];
        else
            ++nvm.inCount[pi];
        break;
      }
      case Opcode::kOut: {
        const int port = static_cast<std::int32_t>(d.imm);
        if (port < 0 || port >= kIoPorts)
            return StepExit::kFaulted;
        const auto pi = static_cast<std::size_t>(port);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(port).set(index, regs[d.rs1]);
        if (staged)
            ++pendingOut_[pi];
        else
            ++nvm.outCount[pi];
        break;
      }
      case Opcode::kHalt:
        ++stats.completions;
        if (staged)
            commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kCompletion, 0,
                          stats.completions, nvm.committedOutTotal());
        if (continuous_) {
            restartProgram();
            pc = 0;
            return StepExit::kContinue;
        }
        halted_ = true;
        return StepExit::kHalted;  // pc stays on the halt instruction
      case Opcode::kBoundary:
        if (staged) {
            nvm.committedRegion = d.imm;
            ++nvm.commitCount;
            commitIo();
            GECKO_TRACE_EVENT(trace::EventKind::kRegionCommit, 0,
                              nvm.committedRegion, nvm.commitCount);
        }
        ++stats.boundaryCommits;
        break;
      case Opcode::kCkpt:
        nvm.writeSlot(d.rs1, static_cast<std::int32_t>(d.imm), regs[d.rs1]);
        ++stats.ckptStores;
        break;
    }
    pc = next;
    return StepExit::kContinue;
}

RunExit
Machine::finishRun(RunExit exit, std::uint32_t pc, std::uint64_t& instrs,
                   std::uint64_t cycles, std::uint64_t* consumed)
{
    // Flush a run's locals on its exit edge.  A faulting instruction is
    // counted and the PC stays on it; a non-tolerant machine throws out
    // of fault() with this run's cycles uncounted, as step() does.
    // `instrs` is zeroed first so the caller's catch handler does not
    // count it twice.
    pc_ = pc;
    stats.instrs += instrs;
    instrs = 0;
    if (exit == RunExit::kFaulted)
        fault();
    stats.cycles += cycles;
    if (consumed)
        *consumed = cycles;
    return exit;
}

#if GECKO_COMPUTED_GOTO

RunExit
Machine::runBlock(std::uint64_t cycleBudget, std::uint64_t* consumed)
{
    // Handler table indexed by UopKind (same order; see superblock.hpp).
    static void* const kKindTable[] = {
        &&u_nop, &&u_movi, &&u_mov, &&u_not, &&u_neg,
        // clang-format off
        &&u_add_rr, &&u_sub_rr, &&u_mul_rr, &&u_divu_rr, &&u_remu_rr,
        &&u_and_rr, &&u_or_rr, &&u_xor_rr, &&u_shl_rr, &&u_shr_rr,
        &&u_add_ri, &&u_sub_ri, &&u_mul_ri, &&u_divu_ri, &&u_remu_ri,
        &&u_and_ri, &&u_or_ri, &&u_xor_ri, &&u_shl_ri, &&u_shr_ri,
        &&u_load, &&u_store,
        &&u_in_staged, &&u_in_direct, &&u_out_staged, &&u_out_direct,
        &&u_boundary_staged, &&u_boundary_plain, &&u_ckpt, &&u_bad_io,
        &&u_andi_addi,
        &&u_mulri_addri, &&u_shrri_xorrr, &&u_andri_shrri, &&u_andri_addrr,
        &&u_mulri_addrr, &&u_andri_xorrr, &&u_movi_addrr, &&u_addrr_load,
        &&u_movi_add_load, &&u_movi_add_store, &&u_ckpt_ckpt,
        &&u_beq, &&u_bne, &&u_blt, &&u_bge, &&u_bltu, &&u_bgeu,
        &&u_jmp, &&u_call, &&u_ret, &&u_halt, &&u_fall,
        &&u_addi_beq, &&u_addi_bne, &&u_addi_blt, &&u_addi_bge,
        &&u_addi_bltu, &&u_addi_bgeu,
        &&u_subi_beq, &&u_subi_bne, &&u_subi_blt, &&u_subi_bge,
        &&u_subi_bltu, &&u_subi_bgeu,
        &&u_addrr_addi_blt, &&u_shrri_addi_blt,
        &&u_movi_fall, &&u_addri_jmp,
        &&u_lcg_loop, &&u_crc_loop, &&u_fir_loop, &&u_popcnt_loop,
        // clang-format on
    };
    static_assert(sizeof(kKindTable) / sizeof(kKindTable[0]) ==
                  static_cast<std::size_t>(kNumUopKinds));

    ensureBlocks();

    SuperBlock* const blocks = blocks_.data();
    Uop* pool = uopPool_.data();
    const std::uint32_t* const blockAt = blockAt_.data();
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    Nvm& nvm = *nvm_;
    std::uint32_t* const regs = regs_.data();
    const bool btrace = blockTrace_;

    // Hot state lives in locals so the dispatch loop keeps it in
    // registers; counters flush on every exit edge (finishRun).
    // `instrs`/`cycles` advance at block granularity — the fault path
    // reconstructs mid-block counts from Uop::costPrefix.
    std::uint32_t pc = pc_;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    SuperBlock* b = nullptr;
    const Uop* u = nullptr;
    [[maybe_unused]] std::uint16_t deoptReason = 0;

// One micro-op ends, the next begins: single indirect jump.
#define GECKO_NEXT                                                          \
    do {                                                                    \
        ++u;                                                                \
        goto* u->handler;                                                   \
    } while (0)

// Straight ALU micro-ops.
#define GECKO_ALU(label, expr)                                              \
    label:                                                                  \
    regs[u->rd] = (expr);                                                   \
    GECKO_NEXT;

// Conditional-branch terminator: account the block, then either chain
// straight back into this block's micro-ops (hot self-loop) or re-enter
// the dispatch preamble.
#define GECKO_BRANCH_TERM(label, cond)                                      \
    label: {                                                                \
        cycles += b->cost;                                                  \
        instrs += b->len;                                                   \
        const std::uint32_t nx = (cond) ? u->aux : b->start + b->len;       \
        if (nx == b->start && cycles + b->cost <= cycleBudget) {            \
            u = pool + b->uopStart;                                             \
            goto* u->handler;                                               \
        }                                                                   \
        pc = nx;                                                            \
        goto chain;                                                         \
    }

// Fused loop latch: immediate add/sub, then branch on the result.
#define GECKO_LATCH_TERM(label, op, cond)                                   \
    label: {                                                                \
        const std::uint32_t v = regs[u->rs1] op u->imm;                     \
        regs[u->rd] = v;                                                    \
        cycles += b->cost;                                                  \
        instrs += b->len;                                                   \
        const std::uint32_t nx = (cond) ? u->aux : b->start + b->len;       \
        if (nx == b->start && cycles + b->cost <= cycleBudget) {            \
            u = pool + b->uopStart;                                             \
            goto* u->handler;                                               \
        }                                                                   \
        pc = nx;                                                            \
        goto chain;                                                         \
    }

    try {
      enter:
        if (cycles >= cycleBudget)
            goto budget_out;
        if (pc >= size)
            goto fault_common;
        b = &blocks[blockAt[pc]];
        if (pc != b->start) {
            // Mid-block entry: a budget tail stopped inside a block, or
            // a JIT-checkpoint image restore resumed there.  Step until
            // execution realigns with a leader.
            deoptReason = trace::kFlagDeoptUnaligned;
            goto deopt;
        }
        if (!b->compiled) {
            if (++b->execCount < kHotThreshold) {
                deoptReason = trace::kFlagDeoptCold;
                goto deopt;
            }
            compileBlock(*b);
            pool = uopPool_.data();
            if (btrace)
                GECKO_TRACE_EVENT(trace::EventKind::kBlockCompile, 0,
                                  b->start, b->len);
        }
        if (!b->threaded) {
            for (std::uint32_t oi = 0; oi < b->uopCount; ++oi) {
                Uop& op = pool[b->uopStart + oi];
                op.handler = kKindTable[static_cast<int>(op.kind)];
            }
            b->threaded = true;
        }
        if (cycles + b->cost > cycleBudget) {
            // Budget tail: the whole block no longer fits the quantum's
            // energy/clock bound — the conservative block-entry guard.
            deoptReason = trace::kFlagDeoptBudget;
            goto deopt;
        }
        if (btrace)
            GECKO_TRACE_EVENT(trace::EventKind::kBlockEnter, 0, b->start,
                              cycles);
        u = pool + b->uopStart;
        goto* u->handler;

        // Fast block-to-block dispatch: terminators land here with the
        // next pc.  A hot, aligned target whose whole cost fits the
        // remaining budget starts threading with one compare chain —
        // the full preamble only runs for cold/unaligned/tail cases
        // (and whenever block tracing wants its kBlockEnter events).
      chain:
        if (!btrace && pc < size) {
            SuperBlock* const nb = &blocks[blockAt[pc]];
            if (nb->threaded && pc == nb->start &&
                cycles + nb->cost <= cycleBudget) {
                b = nb;
                u = pool + nb->uopStart;
                goto* u->handler;
            }
        }
        goto enter;

        // ---- Per-instruction fallback -----------------------------
        // stepDecoded executes exactly one instruction, then control
        // re-enters block dispatch: deopts are instruction-precise and
        // threaded execution resumes at the very next leader.
      deopt:
        if (btrace)
            GECKO_TRACE_EVENT(trace::EventKind::kBlockDeopt, deoptReason,
                              pc, cycles);
        switch (stepDecoded(pc, cycles, instrs)) {
          case StepExit::kContinue:
            goto enter;
          case StepExit::kHalted:
            return finishRun(RunExit::kHalted, pc, instrs, cycles,
                             consumed);
          case StepExit::kFaulted:
            break;
        }

      fault_common:
        return finishRun(RunExit::kFaulted, pc, instrs, cycles, consumed);

        // ---- Straight-line micro-ops ------------------------------
      u_nop:
        GECKO_NEXT;
        GECKO_ALU(u_movi, u->imm)
        GECKO_ALU(u_mov, regs[u->rs1])
        GECKO_ALU(u_not, ~regs[u->rs1])
        GECKO_ALU(u_neg, 0u - regs[u->rs1])
        GECKO_ALU(u_add_rr, regs[u->rs1] + regs[u->rs2])
        GECKO_ALU(u_sub_rr, regs[u->rs1] - regs[u->rs2])
        GECKO_ALU(u_mul_rr, regs[u->rs1] * regs[u->rs2])
      u_divu_rr: {
        const std::uint32_t v = regs[u->rs2];
        regs[u->rd] = v == 0 ? 0xffffffffu : regs[u->rs1] / v;
        GECKO_NEXT;
      }
      u_remu_rr: {
        const std::uint32_t v = regs[u->rs2];
        regs[u->rd] = v == 0 ? regs[u->rs1] : regs[u->rs1] % v;
        GECKO_NEXT;
      }
        GECKO_ALU(u_and_rr, regs[u->rs1] & regs[u->rs2])
        GECKO_ALU(u_or_rr, regs[u->rs1] | regs[u->rs2])
        GECKO_ALU(u_xor_rr, regs[u->rs1] ^ regs[u->rs2])
        GECKO_ALU(u_shl_rr, regs[u->rs1] << (regs[u->rs2] & 31u))
        GECKO_ALU(u_shr_rr, regs[u->rs1] >> (regs[u->rs2] & 31u))
        GECKO_ALU(u_add_ri, regs[u->rs1] + u->imm)
        GECKO_ALU(u_sub_ri, regs[u->rs1] - u->imm)
        GECKO_ALU(u_mul_ri, regs[u->rs1] * u->imm)
      u_divu_ri:
        regs[u->rd] = u->imm == 0 ? 0xffffffffu : regs[u->rs1] / u->imm;
        GECKO_NEXT;
      u_remu_ri:
        regs[u->rd] = u->imm == 0 ? regs[u->rs1] : regs[u->rs1] % u->imm;
        GECKO_NEXT;
        GECKO_ALU(u_and_ri, regs[u->rs1] & u->imm)
        GECKO_ALU(u_or_ri, regs[u->rs1] | u->imm)
        GECKO_ALU(u_xor_ri, regs[u->rs1] ^ u->imm)
        GECKO_ALU(u_shl_ri, regs[u->rs1] << u->imm)  // pre-masked
        GECKO_ALU(u_shr_ri, regs[u->rs1] >> u->imm)  // pre-masked
      u_load: {
        const std::uint32_t addr = regs[u->rs1] + u->imm;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_store: {
        const std::uint32_t addr = regs[u->rs1] + u->imm;
        if (!nvm.inRange(addr))
            goto uop_fault;
        nvm.store(addr, regs[u->rs2]);
        GECKO_NEXT;
      }
      u_andi_addi: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rs2] = t;
        regs[u->rd] = t + u->aux;
        GECKO_NEXT;
      }
      u_mulri_addri: {
        const std::uint32_t t = regs[u->rs1] * u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + u->imm2;
        GECKO_NEXT;
      }
      u_shrri_xorrr: {
        const std::uint32_t t = regs[u->rs1] >> u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t ^ regs[u->rx];
        GECKO_NEXT;
      }
      u_andri_shrri: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t >> u->imm2;  // pre-masked
        GECKO_NEXT;
      }
      u_andri_addrr: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + regs[u->rx];
        GECKO_NEXT;
      }

      u_mulri_addrr: {
        const std::uint32_t t = regs[u->rs1] * u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + regs[u->rx];
        GECKO_NEXT;
      }

      u_andri_xorrr: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t ^ regs[u->rx];
        GECKO_NEXT;
      }

      u_movi_addrr: {
        regs[u->rd] = u->imm;
        regs[u->rd2] = regs[u->rd] + regs[u->rx];
        GECKO_NEXT;
      }

      u_addrr_load: {
        const std::uint32_t t = regs[u->rs1] + regs[u->rs2];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd2] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_movi_add_load: {
        const std::uint32_t t = u->imm + regs[u->rx];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd2] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_movi_add_store: {
        const std::uint32_t t = u->imm + regs[u->rx];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        nvm.store(addr, regs[u->rs2]);
        GECKO_NEXT;
      }
      u_ckpt_ckpt:
        nvm.writeSlot(u->rs1, static_cast<std::int32_t>(u->imm),
                      regs[u->rs1]);
        nvm.writeSlot(u->rd2, static_cast<std::int32_t>(u->imm2),
                      regs[u->rd2]);
        stats.ckptStores += 2;
        GECKO_NEXT;
      u_in_staged: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[u->rd] =
            io_->input(static_cast<int>(u->imm)).valueAt(index);
        ++pendingIn_[pi];
        GECKO_NEXT;
      }
      u_in_direct: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[u->rd] =
            io_->input(static_cast<int>(u->imm)).valueAt(index);
        ++nvm.inCount[pi];
        GECKO_NEXT;
      }
      u_out_staged: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(static_cast<int>(u->imm)).set(index, regs[u->rs1]);
        ++pendingOut_[pi];
        GECKO_NEXT;
      }
      u_out_direct: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(static_cast<int>(u->imm)).set(index, regs[u->rs1]);
        ++nvm.outCount[pi];
        GECKO_NEXT;
      }
      u_boundary_staged:
        nvm.committedRegion = u->imm;
        ++nvm.commitCount;
        commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kRegionCommit, 0,
                          nvm.committedRegion, nvm.commitCount);
        ++stats.boundaryCommits;
        GECKO_NEXT;
      u_boundary_plain:
        ++stats.boundaryCommits;
        GECKO_NEXT;
      u_ckpt:
        nvm.writeSlot(u->rs1, static_cast<std::int32_t>(u->imm),
                      regs[u->rs1]);
        ++stats.ckptStores;
        GECKO_NEXT;
      u_bad_io:
        goto uop_fault;

        // ---- Terminators ------------------------------------------
        GECKO_BRANCH_TERM(u_beq, regs[u->rs1] == regs[u->rs2])
        GECKO_BRANCH_TERM(u_bne, regs[u->rs1] != regs[u->rs2])
        GECKO_BRANCH_TERM(u_blt,
                          static_cast<std::int32_t>(regs[u->rs1]) <
                              static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_BRANCH_TERM(u_bge,
                          static_cast<std::int32_t>(regs[u->rs1]) >=
                              static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_BRANCH_TERM(u_bltu, regs[u->rs1] < regs[u->rs2])
        GECKO_BRANCH_TERM(u_bgeu, regs[u->rs1] >= regs[u->rs2])
      u_jmp: {
        cycles += b->cost;
        instrs += b->len;
        const std::uint32_t nx = u->aux;
        if (nx == b->start && cycles + b->cost <= cycleBudget) {
            u = pool + b->uopStart;
            goto* u->handler;
        }
        pc = nx;
        goto chain;
      }
      u_call:
        regs[ir::kLinkReg] = u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      u_ret: {
        const std::uint32_t nx = regs[ir::kLinkReg];
        if (nx > size)
            goto uop_fault;
        cycles += b->cost;
        instrs += b->len;
        pc = nx;
        goto chain;
      }
      u_halt:
        cycles += b->cost;
        instrs += b->len;
        ++stats.completions;
        if (stagedIo_)
            commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kCompletion, 0,
                          stats.completions, nvm.committedOutTotal());
        if (continuous_) {
            restartProgram();
            pc = 0;
            goto enter;
        }
        halted_ = true;
        pc = b->start + b->len - 1;
        if (btrace)
            GECKO_TRACE_EVENT(trace::EventKind::kBlockExit, 0, pc, cycles);
        return finishRun(RunExit::kHalted, pc, instrs, cycles, consumed);
      u_fall:
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;

        // ---- Fused loop latches -----------------------------------
        // clang-format off
        GECKO_LATCH_TERM(u_addi_beq, +, v == regs[u->rs2])
        GECKO_LATCH_TERM(u_addi_bne, +, v != regs[u->rs2])
        GECKO_LATCH_TERM(u_addi_blt, +,
                         static_cast<std::int32_t>(v) <
                             static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_LATCH_TERM(u_addi_bge, +,
                         static_cast<std::int32_t>(v) >=
                             static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_LATCH_TERM(u_addi_bltu, +, v < regs[u->rs2])
        GECKO_LATCH_TERM(u_addi_bgeu, +, v >= regs[u->rs2])
        GECKO_LATCH_TERM(u_subi_beq, -, v == regs[u->rs2])
        GECKO_LATCH_TERM(u_subi_bne, -, v != regs[u->rs2])
        GECKO_LATCH_TERM(u_subi_blt, -,
                         static_cast<std::int32_t>(v) <
                             static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_LATCH_TERM(u_subi_bge, -,
                         static_cast<std::int32_t>(v) >=
                             static_cast<std::int32_t>(regs[u->rs2]))
        GECKO_LATCH_TERM(u_subi_bltu, -, v < regs[u->rs2])
        GECKO_LATCH_TERM(u_subi_bgeu, -, v >= regs[u->rs2])
        // clang-format on

        // ---- Latch triples (leading ALU op + self-counted latch) ----
      u_addrr_addi_blt: {
        regs[u->rd] = regs[u->rs1] + regs[u->rs2];
        const std::uint32_t v = regs[u->rd2] + u->imm2;
        regs[u->rd2] = v;
        cycles += b->cost;
        instrs += b->len;
        const std::uint32_t nx = static_cast<std::int32_t>(v) <
                                         static_cast<std::int32_t>(regs[u->rx])
                                     ? u->aux
                                     : b->start + b->len;
        if (nx == b->start && cycles + b->cost <= cycleBudget) {
            u = pool + b->uopStart;
            goto* u->handler;
        }
        pc = nx;
        goto chain;
      }
      u_shrri_addi_blt: {
        regs[u->rd] = regs[u->rs1] >> u->imm;
        const std::uint32_t v = regs[u->rd2] + u->imm2;
        regs[u->rd2] = v;
        cycles += b->cost;
        instrs += b->len;
        const std::uint32_t nx = static_cast<std::int32_t>(v) <
                                         static_cast<std::int32_t>(regs[u->rx])
                                     ? u->aux
                                     : b->start + b->len;
        if (nx == b->start && cycles + b->cost <= cycleBudget) {
            u = pool + b->uopStart;
            goto* u->handler;
        }
        pc = nx;
        goto chain;
      }

      u_movi_fall: {
        regs[u->rd] = u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      }

      u_addri_jmp: {
        regs[u->rd] = regs[u->rs1] + u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      }

      u_lcg_loop: {
        // Native counted loop (see compileBlock's matcher): pure ALU
        // body + counter-only exit, so k whole iterations — bounded by
        // the remaining budget and the latch's own exit count — leave
        // registers, cycles and instruction counts exactly as k threaded
        // passes would.
        const std::uint64_t kmax = (cycleBudget - cycles) / b->cost;
        const std::uint32_t cnt0 = regs[u->rd2];
        const std::uint64_t kexit = countedExitTrips(cnt0, regs[u->rx]);
        const std::uint64_t k = std::min(kmax, kexit);
        std::uint32_t s = regs[u->rd];
        std::uint32_t t = regs[u->rs1];
        std::uint32_t acc = regs[u->rs2];
        const std::uint32_t mulK = u->imm;
        const std::uint32_t addC = u->imm2;
        const std::uint32_t sh = u->aux;
        for (std::uint64_t j = 0; j < k; ++j) {
            s = s * mulK + addC;
            t = s >> sh;
            s ^= t;
            acc += s;
        }
        regs[u->rd] = s;
        regs[u->rs1] = t;
        regs[u->rs2] = acc;
        regs[u->rd2] = cnt0 + static_cast<std::uint32_t>(k);
        cycles += k * b->cost;
        instrs += k * b->len;
        pc = k == kexit ? b->start + b->len : b->start;
        goto chain;
      }

      u_fir_loop: {
        // Native FIR multiply-accumulate loop (see compileBlock's
        // matcher).  Fixed per-iteration cost, counted exit; the two
        // loads are bounds-checked every iteration, and a failing check
        // commits only the completed iterations and replays the
        // faulting one through the per-instruction fallback — the
        // fault fires at the exact instruction with exact state.
        const std::uint64_t kmax = (cycleBudget - cycles) / b->cost;
        const std::uint64_t kexit =
            countedExitTrips(regs[u->rd2], regs[u->rx]);
        const std::uint64_t kIter = std::min(kmax, kexit);
        const std::uint8_t rA = u->imm2 & 0xffu;
        const std::uint8_t rX = (u->imm2 >> 8) & 0xffu;
        const std::uint8_t rY = (u->imm2 >> 16) & 0xffu;
        const std::uint32_t mask = u->imm2 >> 24;
        const std::uint32_t ringBase = u->imm;
        const std::uint32_t tapsBase = u->aux;
        const std::uint32_t src = regs[u->rs1];
        std::uint32_t t = regs[u->rd2];
        std::uint32_t acc = regs[u->rd];
        std::uint32_t vI = regs[u->rs2];
        std::uint32_t vA = regs[rA];
        std::uint32_t vX = regs[rX];
        std::uint32_t vY = regs[rY];
        std::uint64_t j = 0;
        for (; j < kIter; ++j) {
            const std::uint32_t idx = (src - t) & mask;
            const std::uint32_t a0 = ringBase + idx;
            if (!nvm.inRange(a0))
                break;
            const std::uint32_t x = nvm.load(a0);
            const std::uint32_t a1 = tapsBase + t;
            if (!nvm.inRange(a1))
                break;
            const std::uint32_t y = nvm.load(a1);
            const std::uint32_t p = x * y;
            acc += p;
            t += 1;
            vI = idx;
            vA = a1;
            vX = p;
            vY = y;
        }
        regs[u->rs2] = vI;
        regs[rA] = vA;
        regs[rX] = vX;
        regs[rY] = vY;
        regs[u->rd] = acc;
        regs[u->rd2] = t;
        cycles += j * b->cost;
        instrs += j * b->len;
        if (j < kIter) {
            // Bounds failure: rewind to the iteration start and let the
            // per-instruction fallback reach the faulting load.
            pc = b->start;
            deoptReason = trace::kFlagDeoptUnaligned;
            goto deopt;
        }
        pc = j == kexit ? b->start + b->len : b->start;
        goto chain;
      }

      u_popcnt_loop: {
        // Native bit-count loop (see compileBlock's matcher) in closed
        // form.  k is bounded as in u_lcg_loop (k >= 1: the block-entry
        // guard reserved one iteration); k passes shift k bits out of
        // rS, so the handler is O(1) however far a corrupted counter or
        // bound puts the loop's exit.
        const std::uint64_t kmax = (cycleBudget - cycles) / b->cost;
        const std::uint64_t kexit =
            countedExitTrips(regs[u->rd2], regs[u->rx]);
        const std::uint64_t k = std::min(kmax, kexit);
        const std::uint32_t s = regs[u->rs1];
        const std::uint32_t low = k >= 32 ? s : s & ((1u << k) - 1u);
        regs[u->rd] += static_cast<std::uint32_t>(std::popcount(low));
        regs[u->rs2] = k > 32 ? 0u : (s >> (k - 1)) & 1u;
        regs[u->rs1] = k >= 32 ? 0u : s >> k;
        regs[u->rd2] += static_cast<std::uint32_t>(k);
        cycles += k * b->cost;
        instrs += k * b->len;
        pc = k == kexit ? b->start + b->len : b->start;
        goto chain;
      }

      u_crc_loop: {
        // Native CRC bit loop spanning the three-block cycle rooted at
        // this block (see compileBlock's matcher).  Per-iteration cycle
        // cost is path-dependent (the xor is skipped on a zero bit), so
        // the budget check reserves a worst-case iteration; a mid-loop
        // budget stop resumes at the block start with exact state.
        std::uint32_t s = regs[u->rs1];
        std::uint32_t cnt = regs[u->rs2];
        std::uint32_t bit = regs[u->rd];
        const std::uint32_t z1 = regs[u->rd2];
        const std::uint32_t z2 = regs[u->rx];
        const std::uint32_t poly = u->imm;
        const std::uint64_t cTak = u->imm2;
        const std::uint64_t cNot = u->aux;
        std::uint32_t nx = b->start;
        for (;;) {
            bit = s & 1u;
            s >>= 1;
            if (bit == z1) {
                cycles += cTak;
                instrs += 5;
            } else {
                s ^= poly;
                cycles += cNot;
                instrs += 6;
            }
            --cnt;
            if (cnt == z2) {
                nx = b->start + 6;
                break;
            }
            if (cycles + cNot > cycleBudget)
                break;
        }
        regs[u->rd] = bit;
        regs[u->rs1] = s;
        regs[u->rs2] = cnt;
        pc = nx;
        goto chain;
      }

      uop_fault:
        // Reconstruct exact per-instruction counts for the partially
        // executed block: Uop::aux holds the faulting instruction's
        // block-relative index, Uop::costPrefix the block cost up to
        // and including it.
        instrs += u->aux + 1;
        cycles += u->costPrefix;
        pc = b->start + u->aux;
        goto fault_common;

      budget_out:
        if (btrace)
            GECKO_TRACE_EVENT(trace::EventKind::kBlockExit, 0, pc, cycles);
        return finishRun(RunExit::kBudget, pc, instrs, cycles, consumed);
    } catch (...) {
        stats.instrs += instrs;
        pc_ = pc;
        throw;
    }

#undef GECKO_NEXT
#undef GECKO_ALU
#undef GECKO_BRANCH_TERM
#undef GECKO_LATCH_TERM
}

#else  // !GECKO_COMPUTED_GOTO

RunExit
Machine::runBlock(std::uint64_t cycleBudget, std::uint64_t* consumed)
{
    // No threaded code: every instruction takes the threaded loop's
    // deopt path, with the same exit accounting.
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    std::uint32_t pc = pc_;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    try {
        while (cycles < cycleBudget) {
            const StepExit step = pc < size
                                      ? stepDecoded(pc, cycles, instrs)
                                      : StepExit::kFaulted;
            if (step == StepExit::kHalted)
                return finishRun(RunExit::kHalted, pc, instrs, cycles,
                                 consumed);
            if (step == StepExit::kFaulted)
                return finishRun(RunExit::kFaulted, pc, instrs, cycles,
                                 consumed);
        }
    } catch (...) {
        stats.instrs += instrs;
        pc_ = pc;
        throw;
    }
    return finishRun(RunExit::kBudget, pc, instrs, cycles, consumed);
}

#endif  // GECKO_COMPUTED_GOTO

}  // namespace gecko::sim

