#include "compiler/region_formation.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "compiler/alias_analysis.hpp"
#include "compiler/cfg.hpp"
#include "compiler/dominators.hpp"
#include "compiler/liveness.hpp"
#include "compiler/loop_analysis.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;

namespace {

Instr
boundaryInstr()
{
    Instr ins;
    ins.op = Opcode::kBoundary;
    ins.imm = -1;  // region id assigned later by CheckpointInsertion
    return ins;
}

/**
 * Would a boundary inserted before `pos` be redundant (position already
 * starts with, or is directly preceded by, a boundary)?
 */
bool
guarded(const Program& prog, std::size_t pos)
{
    if (pos < prog.size() && prog.at(pos).op == Opcode::kBoundary)
        return true;
    if (pos > 0 && prog.at(pos - 1).op == Opcode::kBoundary)
        return true;
    return false;
}

}  // namespace

int
RegionFormation::insertStructuralBoundaries(Program& prog,
                                            const RegionFormationConfig& cfg)
{
    Cfg graph = Cfg::build(prog);
    std::set<std::size_t> positions;
    positions.insert(0);

    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Instr& ins = prog.at(i);
        if (cfg.cutLoopHeaders) {
            BlockId b = graph.blockOf(i);
            if (graph.isLoopHeader(b) && graph.block(b).first == i)
                positions.insert(i);
        }
        if (ins.op == Opcode::kCall) {
            positions.insert(i);
            positions.insert(i + 1);                   // return point
            positions.insert(prog.labelPos(ins.target));  // callee entry
        }
        // I/O is its own region.
        if (ins.op == Opcode::kIn || ins.op == Opcode::kOut) {
            positions.insert(i);
            positions.insert(i + 1);
        }
        // A boundary before kHalt makes program completion a committed
        // region: a power failure after the halt re-executes only the
        // halt, never re-emitting I/O.
        if (ins.op == Opcode::kHalt)
            positions.insert(i);
    }

    int inserted = 0;
    for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
        std::size_t pos = *it;
        if (pos >= prog.size())
            continue;  // nothing executes past the final terminator
        if (guarded(prog, pos))
            continue;
        prog.insertBefore(pos, boundaryInstr(), /*before_label=*/true);
        ++inserted;
    }
    return inserted;
}

int
RegionFormation::cutAntiDependences(Program& prog, bool preciseAliasing)
{
    Cfg graph = Cfg::build(prog);
    ReachingDefs rdefs = ReachingDefs::build(prog, graph);
    AliasAnalysis aa = AliasAnalysis::build(prog, graph, rdefs);
    Dominators dom = Dominators::build(graph);
    std::vector<NaturalLoop> loops =
        LoopAnalysis::analyze(prog, graph, dom, rdefs, aa);
    RangeAnalysis ranges(prog, graph, dom, rdefs, aa, loops);

    // May the accesses at `l` (load) and `s` (store) touch the same word?
    auto accesses_may_alias = [&](std::size_t l, std::size_t s) {
        if (!preciseAliasing)
            return true;  // Ratchet's binary-level conservatism
        if (aa.alias(l, s) == AliasVerdict::kNoAlias)
            return false;
        // Fall back to index ranges: disjoint array footprints cannot
        // collide even with loop-variant indices.
        auto rl = ranges.addrRange(l);
        auto rs = ranges.addrRange(s);
        if (rl && rs &&
            (rl->second < rs->first || rs->second < rl->first))
            return false;
        return true;
    };

    // Forward dataflow.  Per point:
    //   reads:   load instructions executed since the last boundary on SOME
    //            path (union at joins) and not WARAW-protected,
    //   written: constant addresses stored since the last boundary on EVERY
    //            path (intersection at joins; nullopt = top).
    struct State {
        std::set<std::size_t> reads;
        std::optional<std::set<std::uint32_t>> written;  // nullopt = top

        bool operator==(const State&) const = default;
    };

    auto meet = [](State a, const State& b) {
        a.reads.insert(b.reads.begin(), b.reads.end());
        if (!a.written) {
            a.written = b.written;
        } else if (b.written) {
            std::set<std::uint32_t> inter;
            std::set_intersection(a.written->begin(), a.written->end(),
                                  b.written->begin(), b.written->end(),
                                  std::inserter(inter, inter.begin()));
            a.written = std::move(inter);
        }
        return a;
    };

    // store instr -> one witnessing earlier load (for hoisting).
    std::map<std::size_t, std::size_t> violations;

    auto transfer = [&](State s, const BasicBlock& block) {
        if (!s.written)
            s.written.emplace();
        for (std::size_t i = block.first; i <= block.last; ++i) {
            const Instr& ins = prog.at(i);
            switch (ins.op) {
              case Opcode::kBoundary:
                s.reads.clear();
                s.written->clear();
                break;
              case Opcode::kCall:
                // Callee effects unknown; surrounding boundaries normally
                // clear state, but stay conservative regardless.
                s.reads.clear();
                s.written->clear();
                break;
              case Opcode::kLoad: {
                auto addr = aa.constAddr(i);
                if (!preciseAliasing || !(addr && s.written->count(*addr)))
                    s.reads.insert(i);
                break;
              }
              case Opcode::kStore: {
                bool war = false;
                std::size_t witness = 0;
                for (std::size_t l : s.reads) {
                    if (accesses_may_alias(l, i)) {
                        war = true;
                        witness = l;
                        break;
                    }
                }
                if (war) {
                    violations.emplace(i, witness);
                    // Model the boundary that will be inserted before i.
                    s.reads.clear();
                    s.written->clear();
                }
                if (auto addr = aa.constAddr(i))
                    s.written->insert(*addr);
                break;
              }
              default:
                break;
            }
        }
        return s;
    };

    const std::size_t nb = graph.numBlocks();
    std::vector<State> in(nb), out(nb);
    // Entry starts a fresh region (a boundary is always present at 0 after
    // structural placement, but be robust without it).
    in[static_cast<std::size_t>(graph.entry())].written.emplace();

    bool changed = true;
    while (changed) {
        changed = false;
        violations.clear();
        for (BlockId b : graph.reversePostOrder()) {
            std::size_t bi = static_cast<std::size_t>(b);
            State o = transfer(in[bi], graph.block(b));
            if (!(o == out[bi])) {
                out[bi] = o;
                changed = true;
            }
            for (BlockId succ : graph.block(b).succs) {
                std::size_t si = static_cast<std::size_t>(succ);
                State merged = meet(in[si], out[bi]);
                if (!(merged == in[si])) {
                    in[si] = std::move(merged);
                    changed = true;
                }
            }
        }
    }

    // Pick each violation's boundary position.  A store whose
    // anti-dependent load lives *outside* the store's loop only
    // conflicts across iterations of an outer trip, so the cut can be
    // hoisted to the loop's preheader (one boundary per loop entry
    // instead of one per iteration).  The hoist is only legal when
    // every out-of-loop path enters the header by fall-through (the
    // inserted instruction would be skipped by a direct jump).
    std::set<std::pair<std::size_t, bool>> cuts;  // (pos, before_label)
    for (const auto& [store, load] : violations) {
        std::size_t pos = store;
        bool before_label = true;
        BlockId store_block = graph.blockOf(store);
        BlockId load_block = graph.blockOf(load);
        const NaturalLoop* hoist = nullptr;
        for (const NaturalLoop& loop : loops) {
            if (!loop.contains(store_block) || loop.contains(load_block))
                continue;
            bool fallthrough_entry = true;
            std::size_t header_first = graph.block(loop.header).first;
            for (BlockId pred : graph.block(loop.header).preds) {
                if (loop.contains(pred))
                    continue;  // back edge
                if (graph.block(pred).last + 1 != header_first)
                    fallthrough_entry = false;
            }
            if (!fallthrough_entry)
                continue;
            // Outermost eligible loop wins (loops are innermost-first).
            hoist = &loop;
        }
        if (hoist) {
            pos = graph.block(hoist->header).first;
            before_label = false;  // preheader: back edges skip it
        }
        cuts.emplace(pos, before_label);
    }

    int inserted = 0;
    for (auto it = cuts.rbegin(); it != cuts.rend(); ++it) {
        if (guarded(prog, it->first))
            continue;
        prog.insertBefore(it->first, boundaryInstr(), it->second);
        ++inserted;
    }
    return inserted;
}

void
RegionFormation::run(Program& prog, const RegionFormationConfig& cfg)
{
    insertStructuralBoundaries(prog, cfg);
    while (cutAntiDependences(prog, cfg.preciseAliasing) > 0) {
    }
}

}  // namespace gecko::compiler
