#include "mpros/sbfr/machine.hpp"

#include <span>

#include "mpros/common/assert.hpp"

namespace mpros::sbfr {
namespace {

constexpr std::uint8_t kMagic0 = 'S';
constexpr std::uint8_t kMagic1 = 'B';
constexpr std::uint8_t kVersion = 1;

void append_u16(std::vector<std::uint8_t>& out, std::size_t v) {
  MPROS_EXPECTS(v <= 0xFFFF);
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

class ImageReader {
 public:
  explicit ImageReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    MPROS_EXPECTS(pos_ < data_.size());
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    MPROS_EXPECTS(pos_ + n <= data_.size());
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Simulate the stack effect of one program. Returns final depth or -1.
int stack_effect(std::span<const std::uint8_t> code) {
  int depth = 0;
  int max_depth = 0;
  std::size_t pc = 0;
  while (pc < code.size()) {
    const Op op = static_cast<Op>(code[pc]);
    const std::size_t imm = immediate_size(op);
    pc += 1 + imm;
    if (pc > code.size()) return -1;

    switch (op) {
      case Op::PushConst:
      case Op::LoadInput:
      case Op::LoadDelta:
      case Op::LoadLocal:
      case Op::LoadStatus:
      case Op::LoadState:
      case Op::LoadDt:
        ++depth;
        break;
      case Op::Neg:
      case Op::Not:
        if (depth < 1) return -1;
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
      case Op::Eq:
      case Op::Ne:
      case Op::And:
      case Op::Or:
      case Op::BitAnd:
      case Op::BitOr:
        if (depth < 2) return -1;
        --depth;
        break;
      case Op::StoreLocal:
      case Op::StoreStatus:
      case Op::Emit:
        if (depth < 1) return -1;
        --depth;
        break;
      case Op::End:
        return -1;  // End is implicit (end of buffer), not encoded
      default:
        return -1;
    }
    max_depth = std::max(max_depth, depth);
    if (max_depth > static_cast<int>(kMaxStackDepth)) return -1;
  }
  return depth;
}

}  // namespace

MachineDef::MachineDef(std::string name, std::uint8_t num_locals,
                       std::uint8_t initial_state)
    : name_(std::move(name)),
      num_locals_(num_locals),
      initial_state_(initial_state) {}

std::uint8_t MachineDef::add_state(std::string state_name) {
  MPROS_EXPECTS(states_.size() < 255);
  states_.push_back(StateDef{std::move(state_name), {}});
  return static_cast<std::uint8_t>(states_.size() - 1);
}

void MachineDef::add_transition(std::uint8_t from, std::uint8_t to,
                                const Expr& when, const Action& then) {
  MPROS_EXPECTS(from < states_.size());
  MPROS_EXPECTS(to < states_.size());
  states_[from].transitions.push_back(
      Transition{when.code(), then.code(), to});
}

std::vector<std::uint8_t> MachineDef::serialize() const {
  std::vector<std::uint8_t> out;
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(initial_state_);
  out.push_back(num_locals_);
  MPROS_EXPECTS(!states_.empty());
  out.push_back(static_cast<std::uint8_t>(states_.size()));

  for (const StateDef& state : states_) {
    MPROS_EXPECTS(state.transitions.size() <= 255);
    out.push_back(static_cast<std::uint8_t>(state.transitions.size()));
    for (const Transition& t : state.transitions) {
      out.push_back(t.target);
      append_u16(out, t.condition.size());
      out.insert(out.end(), t.condition.begin(), t.condition.end());
      append_u16(out, t.action.size());
      out.insert(out.end(), t.action.begin(), t.action.end());
    }
  }
  return out;
}

MachineDef MachineDef::deserialize(std::span<const std::uint8_t> image,
                                   std::string name) {
  ImageReader r(image);
  MPROS_EXPECTS(r.u8() == kMagic0);
  MPROS_EXPECTS(r.u8() == kMagic1);
  MPROS_EXPECTS(r.u8() == kVersion);
  const std::uint8_t initial = r.u8();
  const std::uint8_t locals = r.u8();
  const std::uint8_t num_states = r.u8();

  MachineDef def(std::move(name), locals, initial);
  for (std::uint8_t s = 0; s < num_states; ++s) {
    def.add_state("state" + std::to_string(s));
  }
  for (std::uint8_t s = 0; s < num_states; ++s) {
    const std::uint8_t num_transitions = r.u8();
    for (std::uint8_t t = 0; t < num_transitions; ++t) {
      const std::uint8_t target = r.u8();
      const std::uint16_t cond_len = r.u16();
      std::vector<std::uint8_t> cond = r.bytes(cond_len);
      const std::uint16_t act_len = r.u16();
      std::vector<std::uint8_t> act = r.bytes(act_len);
      MPROS_EXPECTS(target < num_states);
      def.states_[s].transitions.push_back(
          Transition{std::move(cond), std::move(act), target});
    }
  }
  MPROS_EXPECTS(r.done());
  return def;
}

std::string validate(const MachineDef& def) {
  if (def.states().empty()) return "machine has no states";
  if (def.initial_state() >= def.states().size()) {
    return "initial state out of range";
  }
  for (std::size_t s = 0; s < def.states().size(); ++s) {
    const StateDef& state = def.states()[s];
    for (std::size_t t = 0; t < state.transitions.size(); ++t) {
      const Transition& tr = state.transitions[t];
      if (tr.target >= def.states().size()) {
        return "transition target out of range in state " + state.name;
      }
      if (stack_effect(tr.condition) != 1) {
        return "condition of " + state.name + "#" + std::to_string(t) +
               " must leave exactly one value";
      }
      if (stack_effect(tr.action) != 0) {
        return "action of " + state.name + "#" + std::to_string(t) +
               " must leave the stack empty";
      }
    }
  }
  return {};
}

}  // namespace mpros::sbfr
