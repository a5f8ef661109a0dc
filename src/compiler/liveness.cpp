#include "compiler/liveness.hpp"

#include <algorithm>

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

namespace {

RegMask
useMask(const Instr& ins)
{
    if (ins.op == Opcode::kRet)
        return 0xffff;  // conservative: whole register file survives a return
    RegMask m = 0;
    for (Reg r : ir::regsRead(ins))
        m |= regBit(r);
    return m;
}

RegMask
defMask(const Instr& ins)
{
    if (!ir::writesReg(ins))
        return 0;
    if (ins.op == Opcode::kCall)
        return regBit(ir::kLinkReg);
    return regBit(ins.rd);
}

}  // namespace

Liveness
Liveness::build(const Program& prog, const Cfg& cfg)
{
    Liveness live;
    const std::size_t n = prog.size();
    live.liveIn_.assign(n, 0);
    live.liveOut_.assign(n, 0);
    if (n == 0)
        return live;

    // Block-level fixpoint.
    const std::size_t nb = cfg.numBlocks();
    std::vector<RegMask> block_in(nb, 0), block_out(nb, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        // Iterate blocks in reverse RPO (approximately postorder) for
        // faster convergence of the backward problem.
        const auto& rpo = cfg.reversePostOrder();
        for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
            BlockId b = *it;
            const BasicBlock& block = cfg.block(b);
            RegMask out = 0;
            for (BlockId succ : block.succs)
                out |= block_in[static_cast<std::size_t>(succ)];
            RegMask in = out;
            for (std::size_t i = block.last + 1; i-- > block.first;) {
                const Instr& ins = prog.at(i);
                in = static_cast<RegMask>((in & ~defMask(ins)) |
                                          useMask(ins));
            }
            if (in != block_in[static_cast<std::size_t>(b)] ||
                out != block_out[static_cast<std::size_t>(b)]) {
                block_in[static_cast<std::size_t>(b)] = in;
                block_out[static_cast<std::size_t>(b)] = out;
                changed = true;
            }
        }
    }

    // Per-instruction propagation within each block.
    for (std::size_t b = 0; b < nb; ++b) {
        const BasicBlock& block = cfg.block(static_cast<BlockId>(b));
        RegMask cur = block_out[b];
        for (std::size_t i = block.last + 1; i-- > block.first;) {
            const Instr& ins = prog.at(i);
            live.liveOut_[i] = cur;
            cur = static_cast<RegMask>((cur & ~defMask(ins)) | useMask(ins));
            live.liveIn_[i] = cur;
        }
    }
    return live;
}

std::int32_t
ReachingDefs::uniqueDefAt(std::size_t idx, ir::Reg r) const
{
    const auto& defs = defsAt(idx, r);
    if (defs.size() == 1 && defs[0] != kEntryDef)
        return defs[0];
    return -2;
}

ReachingDefs
ReachingDefs::build(const Program& prog, const Cfg& cfg)
{
    ReachingDefs rd;
    const std::size_t n = prog.size();
    rd.in_.resize(n);
    const std::size_t nb = cfg.numBlocks();
    if (n == 0 || nb == 0)
        return rd;

    using RegDefs = std::array<std::vector<std::int32_t>, ir::kNumRegs>;
    auto merge_into = [](RegDefs& dst, const RegDefs& src) {
        bool changed = false;
        for (int r = 0; r < ir::kNumRegs; ++r) {
            for (std::int32_t d : src[static_cast<std::size_t>(r)]) {
                auto& v = dst[static_cast<std::size_t>(r)];
                auto it = std::lower_bound(v.begin(), v.end(), d);
                if (it == v.end() || *it != d) {
                    v.insert(it, d);
                    changed = true;
                }
            }
        }
        return changed;
    };

    auto transfer = [&prog](RegDefs defs, const BasicBlock& block) {
        for (std::size_t i = block.first; i <= block.last; ++i) {
            const Instr& ins = prog.at(i);
            if (ir::writesReg(ins)) {
                Reg target = (ins.op == Opcode::kCall) ? ir::kLinkReg
                                                       : ins.rd;
                defs[target] = {static_cast<std::int32_t>(i)};
            }
        }
        return defs;
    };

    std::vector<RegDefs> block_in(nb), block_out(nb);
    // Entry: all registers carry the pseudo entry definition.
    for (int r = 0; r < ir::kNumRegs; ++r)
        block_in[static_cast<std::size_t>(cfg.entry())]
                [static_cast<std::size_t>(r)] = {kEntryDef};

    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b : cfg.reversePostOrder()) {
            std::size_t bi = static_cast<std::size_t>(b);
            RegDefs out = transfer(block_in[bi], cfg.block(b));
            if (out != block_out[bi]) {
                block_out[bi] = out;
                changed = true;
            }
            for (BlockId succ : cfg.block(b).succs) {
                if (merge_into(block_in[static_cast<std::size_t>(succ)],
                               block_out[bi]))
                    changed = true;
            }
        }
    }

    // Per-instruction IN sets.
    for (std::size_t b = 0; b < nb; ++b) {
        const BasicBlock& block = cfg.block(static_cast<BlockId>(b));
        RegDefs cur = block_in[b];
        for (std::size_t i = block.first; i <= block.last; ++i) {
            rd.in_[i] = cur;
            const Instr& ins = prog.at(i);
            if (ir::writesReg(ins)) {
                Reg target = (ins.op == Opcode::kCall) ? ir::kLinkReg
                                                       : ins.rd;
                cur[target] = {static_cast<std::int32_t>(i)};
            }
        }
    }
    return rd;
}

}  // namespace gecko::compiler
