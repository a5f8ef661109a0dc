#ifndef GECKO_IR_PROGRAM_HPP_
#define GECKO_IR_PROGRAM_HPP_

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/instr.hpp"

/**
 * @file
 * Program container for the GECKO mini-ISA.
 */

namespace gecko::ir {

/** Identifier of a label inside a Program (index into the label table). */
using LabelId = std::int32_t;

/**
 * A straight-line instruction list with a symbolic label table.
 *
 * Control transfers reference labels by id; labels map to instruction
 * indices.  Compiler passes insert instructions with insertBefore(), which
 * keeps every label position consistent, so branch targets never need
 * rewriting.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Number of instructions. */
    std::size_t size() const { return code_.size(); }
    bool empty() const { return code_.empty(); }

    const Instr& at(std::size_t idx) const { return code_.at(idx); }
    Instr& at(std::size_t idx) { return code_.at(idx); }
    const std::vector<Instr>& code() const { return code_; }

    /** Append an instruction and return its index. */
    std::size_t append(const Instr& ins);

    /**
     * Insert an instruction before position `pos`, shifting labels.
     *
     * A label bound exactly at `pos` moves with the instruction originally
     * at `pos` (i.e. the inserted instruction executes *before* the label).
     * Pass `before_label = true` to keep such labels pointing at the
     * inserted instruction instead (the instruction becomes the first of
     * the labelled block — what region-boundary insertion wants).
     */
    void insertBefore(std::size_t pos, const Instr& ins,
                      bool before_label = false);

    /** Remove the instruction at `pos`, shifting labels. */
    void erase(std::size_t pos);

    /**
     * Define or look up a label by name.
     * @return the label id (stable across insertions).
     */
    LabelId internLabel(const std::string& name);

    /** Bind label `id` to instruction index `pos`. */
    void bindLabel(LabelId id, std::size_t pos);

    /** Create a fresh uniquely-named label bound at `pos`. */
    LabelId makeLabelAt(std::size_t pos, const std::string& hint = "L");

    /** @return the instruction index a label is bound to (or npos). */
    std::size_t labelPos(LabelId id) const;

    /** @return the label name for `id`. */
    const std::string& labelName(LabelId id) const;

    /** @return the label id bound exactly at `pos`, if any. */
    std::optional<LabelId> labelAt(std::size_t pos) const;

    /** @return label id for `name`, if defined. */
    std::optional<LabelId> findLabel(const std::string& name) const;

    /** Sentinel for "label not bound". */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * Validate internal consistency: every branch targets a bound label,
     * register indices are in range, the last instruction cannot fall off
     * the end (must be a terminator).
     * @return empty string when valid, otherwise a diagnostic.
     */
    std::string validate() const;

  private:
    struct Label {
        std::string name;
        std::size_t pos = npos;
    };

    std::string name_;
    std::vector<Instr> code_;
    std::vector<Label> labels_;
    std::unordered_map<std::string, LabelId> labelIndex_;
    int uniqueCounter_ = 0;
};

}  // namespace gecko::ir

#endif  // GECKO_IR_PROGRAM_HPP_
