#include "ir/builder.hpp"

#include <stdexcept>

namespace gecko::ir {

ProgramBuilder&
ProgramBuilder::emit(const Instr& ins)
{
    prog_.append(ins);
    return *this;
}

ProgramBuilder&
ProgramBuilder::emitBranch(Opcode op, Reg rs1, Reg rs2,
                           const std::string& label)
{
    Instr ins;
    ins.op = op;
    ins.rs1 = rs1;
    ins.rs2 = rs2;
    ins.target = prog_.internLabel(label);
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::emitAlu(Opcode op, Reg rd, Reg rs1, Reg rs2)
{
    Instr ins;
    ins.op = op;
    ins.rd = rd;
    ins.rs1 = rs1;
    ins.rs2 = rs2;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::emitAluImm(Opcode op, Reg rd, Reg rs1, std::int32_t imm)
{
    Instr ins;
    ins.op = op;
    ins.rd = rd;
    ins.rs1 = rs1;
    ins.useImm = true;
    ins.imm = imm;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::label(const std::string& name)
{
    LabelId id = prog_.internLabel(name);
    if (prog_.labelPos(id) != Program::npos)
        throw std::runtime_error("duplicate label: " + name);
    prog_.bindLabel(id, prog_.size());
    return *this;
}

ProgramBuilder& ProgramBuilder::nop() { return emit({}); }

ProgramBuilder&
ProgramBuilder::movi(Reg rd, std::int32_t imm)
{
    Instr ins;
    ins.op = Opcode::kMovi;
    ins.rd = rd;
    ins.imm = imm;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::mov(Reg rd, Reg rs)
{
    Instr ins;
    ins.op = Opcode::kMov;
    ins.rd = rd;
    ins.rs1 = rs;
    return emit(ins);
}

ProgramBuilder& ProgramBuilder::add(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kAdd, rd, a, b); }
ProgramBuilder& ProgramBuilder::sub(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kSub, rd, a, b); }
ProgramBuilder& ProgramBuilder::mul(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kMul, rd, a, b); }
ProgramBuilder& ProgramBuilder::divu(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kDivu, rd, a, b); }
ProgramBuilder& ProgramBuilder::remu(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kRemu, rd, a, b); }
ProgramBuilder& ProgramBuilder::and_(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kAnd, rd, a, b); }
ProgramBuilder& ProgramBuilder::or_(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kOr, rd, a, b); }
ProgramBuilder& ProgramBuilder::xor_(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kXor, rd, a, b); }
ProgramBuilder& ProgramBuilder::shl(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kShl, rd, a, b); }
ProgramBuilder& ProgramBuilder::shr(Reg rd, Reg a, Reg b)
{ return emitAlu(Opcode::kShr, rd, a, b); }

ProgramBuilder& ProgramBuilder::addi(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kAdd, rd, a, i); }
ProgramBuilder& ProgramBuilder::subi(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kSub, rd, a, i); }
ProgramBuilder& ProgramBuilder::muli(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kMul, rd, a, i); }
ProgramBuilder& ProgramBuilder::remui(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kRemu, rd, a, i); }
ProgramBuilder& ProgramBuilder::andi(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kAnd, rd, a, i); }
ProgramBuilder& ProgramBuilder::xori(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kXor, rd, a, i); }
ProgramBuilder& ProgramBuilder::shli(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kShl, rd, a, i); }
ProgramBuilder& ProgramBuilder::shri(Reg rd, Reg a, std::int32_t i)
{ return emitAluImm(Opcode::kShr, rd, a, i); }

ProgramBuilder&
ProgramBuilder::not_(Reg rd, Reg rs1)
{
    Instr ins;
    ins.op = Opcode::kNot;
    ins.rd = rd;
    ins.rs1 = rs1;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::neg(Reg rd, Reg rs1)
{
    Instr ins;
    ins.op = Opcode::kNeg;
    ins.rd = rd;
    ins.rs1 = rs1;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::load(Reg rd, Reg base, std::int32_t offset)
{
    Instr ins;
    ins.op = Opcode::kLoad;
    ins.rd = rd;
    ins.rs1 = base;
    ins.imm = offset;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::store(Reg base, std::int32_t offset, Reg value)
{
    Instr ins;
    ins.op = Opcode::kStore;
    ins.rs1 = base;
    ins.rs2 = value;
    ins.imm = offset;
    return emit(ins);
}

ProgramBuilder& ProgramBuilder::beq(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBeq, a, b, l); }
ProgramBuilder& ProgramBuilder::bne(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBne, a, b, l); }
ProgramBuilder& ProgramBuilder::blt(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBlt, a, b, l); }
ProgramBuilder& ProgramBuilder::bge(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBge, a, b, l); }
ProgramBuilder& ProgramBuilder::bltu(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBltu, a, b, l); }
ProgramBuilder& ProgramBuilder::bgeu(Reg a, Reg b, const std::string& l)
{ return emitBranch(Opcode::kBgeu, a, b, l); }

ProgramBuilder&
ProgramBuilder::jmp(const std::string& label)
{
    Instr ins;
    ins.op = Opcode::kJmp;
    ins.target = prog_.internLabel(label);
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::call(const std::string& label)
{
    Instr ins;
    ins.op = Opcode::kCall;
    ins.rd = kLinkReg;
    ins.target = prog_.internLabel(label);
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::ret()
{
    Instr ins;
    ins.op = Opcode::kRet;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::in(Reg rd, std::int32_t port)
{
    Instr ins;
    ins.op = Opcode::kIn;
    ins.rd = rd;
    ins.imm = port;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::out(std::int32_t port, Reg rs)
{
    Instr ins;
    ins.op = Opcode::kOut;
    ins.rs1 = rs;
    ins.imm = port;
    return emit(ins);
}

ProgramBuilder&
ProgramBuilder::halt()
{
    Instr ins;
    ins.op = Opcode::kHalt;
    return emit(ins);
}

Program
ProgramBuilder::take()
{
    std::string err = prog_.validate();
    if (!err.empty())
        throw std::runtime_error(prog_.name() + ": " + err);
    return std::move(prog_);
}

}  // namespace gecko::ir
