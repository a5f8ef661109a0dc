#ifndef GECKO_IR_BUILDER_HPP_
#define GECKO_IR_BUILDER_HPP_

#include <string>

#include "ir/program.hpp"

/**
 * @file
 * Fluent builder for hand-writing mini-ISA programs (used by the workload
 * suite and the tests).
 */

namespace gecko::ir {

/**
 * Fluent program builder.
 *
 * Example:
 * @code
 *   ProgramBuilder b("sum");
 *   b.movi(1, 0)            // r1 = acc
 *    .movi(2, 10)           // r2 = n
 *    .label("loop")
 *    .add(1, 1, 2)          // acc += n
 *    .subi(2, 2, 1)         // --n
 *    .bne(2, 0, "loop")
 *    .halt();
 *   Program p = b.take();
 * @endcode
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name) : prog_(std::move(name)) {}

    /** Bind a named label at the current position. */
    ProgramBuilder& label(const std::string& name);

    ProgramBuilder& nop();
    ProgramBuilder& movi(Reg rd, std::int32_t imm);
    ProgramBuilder& mov(Reg rd, Reg rs);

    // Register-register ALU.
    ProgramBuilder& add(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& sub(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& mul(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& divu(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& remu(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& and_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& or_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& xor_(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& shl(Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& shr(Reg rd, Reg rs1, Reg rs2);

    // Register-immediate ALU.
    ProgramBuilder& addi(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& subi(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& muli(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& remui(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& andi(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& xori(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& shli(Reg rd, Reg rs1, std::int32_t imm);
    ProgramBuilder& shri(Reg rd, Reg rs1, std::int32_t imm);

    ProgramBuilder& not_(Reg rd, Reg rs1);
    ProgramBuilder& neg(Reg rd, Reg rs1);

    ProgramBuilder& load(Reg rd, Reg base, std::int32_t offset);
    ProgramBuilder& store(Reg base, std::int32_t offset, Reg value);

    ProgramBuilder& beq(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& bne(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& blt(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& bge(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& bltu(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& bgeu(Reg rs1, Reg rs2, const std::string& label);
    ProgramBuilder& jmp(const std::string& label);
    ProgramBuilder& call(const std::string& label);
    ProgramBuilder& ret();

    ProgramBuilder& in(Reg rd, std::int32_t port);
    ProgramBuilder& out(std::int32_t port, Reg rs);
    ProgramBuilder& halt();

    /**
     * Finish building.  Validates the program; throws std::runtime_error on
     * malformed code (unbound labels, fall-through end, ...).
     */
    Program take();

    /** Access the program under construction (e.g. for size queries). */
    const Program& peek() const { return prog_; }

  private:
    ProgramBuilder& emit(const Instr& ins);
    ProgramBuilder& emitBranch(Opcode op, Reg rs1, Reg rs2,
                               const std::string& label);
    ProgramBuilder& emitAlu(Opcode op, Reg rd, Reg rs1, Reg rs2);
    ProgramBuilder& emitAluImm(Opcode op, Reg rd, Reg rs1, std::int32_t imm);

    Program prog_;
};

}  // namespace gecko::ir

#endif  // GECKO_IR_BUILDER_HPP_
