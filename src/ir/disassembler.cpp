#include "ir/disassembler.hpp"

#include <sstream>

namespace gecko::ir {

namespace {

std::string
reg(Reg r)
{
    std::string name(1, 'r');
    name += std::to_string(static_cast<int>(r));
    return name;
}

}  // namespace

std::string
formatInstr(const Program& prog, const Instr& ins)
{
    std::ostringstream os;
    os << mnemonic(ins.op);
    switch (ins.op) {
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kRet:
        break;
      case Opcode::kMovi:
        os << " " << reg(ins.rd) << ", " << ins.imm;
        break;
      case Opcode::kMov:
      case Opcode::kNot:
      case Opcode::kNeg:
        os << " " << reg(ins.rd) << ", " << reg(ins.rs1);
        break;
      case Opcode::kLoad:
        os << " " << reg(ins.rd) << ", [" << reg(ins.rs1);
        if (ins.imm != 0)
            os << "+" << ins.imm;
        os << "]";
        break;
      case Opcode::kStore:
        os << " [" << reg(ins.rs1);
        if (ins.imm != 0)
            os << "+" << ins.imm;
        os << "], " << reg(ins.rs2);
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        os << " " << reg(ins.rs1) << ", " << reg(ins.rs2) << ", "
           << prog.labelName(ins.target);
        break;
      case Opcode::kJmp:
      case Opcode::kCall:
        os << " " << prog.labelName(ins.target);
        break;
      case Opcode::kIn:
        os << " " << reg(ins.rd) << ", " << ins.imm;
        break;
      case Opcode::kOut:
        os << " " << ins.imm << ", " << reg(ins.rs1);
        break;
      case Opcode::kBoundary:
        os << " " << ins.imm;
        break;
      case Opcode::kCkpt:
        os << " " << reg(ins.rs1) << ", " << ins.imm << ", " << ins.target;
        break;
      default:
        os << " " << reg(ins.rd) << ", " << reg(ins.rs1) << ", ";
        if (ins.useImm)
            os << "#" << ins.imm;
        else
            os << reg(ins.rs2);
        break;
    }
    return os.str();
}

std::string
disassemble(const Program& prog)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        if (auto label = prog.labelAt(i))
            os << prog.labelName(*label) << ":\n";
        os << "    " << formatInstr(prog, prog.at(i)) << "\n";
    }
    // Labels bound past the last instruction (e.g. end labels).
    if (auto label = prog.labelAt(prog.size()))
        os << prog.labelName(*label) << ":\n";
    return os.str();
}

}  // namespace gecko::ir
