#include "fpga/synth.h"

#include <utility>

#include "bytecode/ops.h"
#include "gpu/lowered.h"
#include "util/error.h"

namespace lm::fpga {

using gpu::ArithOp;
using gpu::CmpOp;
using gpu::Intrinsic;
using gpu::KInstr;
using gpu::KOp;
using gpu::NumType;
using rtl::h_binary;
using rtl::h_const;
using rtl::h_mux;
using rtl::h_resize;
using rtl::h_sig;
using rtl::h_unary;
using rtl::HBinOp;
using rtl::HExprPtr;
using rtl::HUnOp;

namespace {

struct Exclude {
  std::string reason;
};

constexpr const char* kNoFloat =
    "floating point is not supported by the FPGA backend";
constexpr const char* kDataLoop =
    "loop bound is not a compile-time constant (cannot unroll)";
/// Work one synthesis may do: IR instructions run, plus one per 16
/// registers a branch on data copies and one per return its join guards.
constexpr size_t kMaxSteps = size_t{1} << 20;
/// How deeply branches on data may nest in one another; each level is a
/// frame of run().
constexpr int kMaxBranchDepth = 256;

int width_of(NumType t) {
  switch (t) {
    case NumType::kBool:
    case NumType::kBit:
      return 1;
    case NumType::kI32:
      return 32;
    case NumType::kI64:
      return 64;
    default:  // kF32, kF64
      throw Exclude{kNoFloat};
  }
}

bool is_signed(NumType t) { return t == NumType::kI32 || t == NumType::kI64; }

/// The control-flow successors of `pc` for finding joins. A kRet goes on
/// to the next instruction, the code after the statement that returned,
/// so a branch with a returning arm joins where its other arm goes on;
/// node n is the exit.
int successors(const std::vector<KInstr>& code, int pc, int out[2]) {
  const KInstr& k = code[static_cast<size_t>(pc)];
  switch (k.op) {
    case KOp::kJump:
      out[0] = k.imm;
      return 1;
    case KOp::kJumpIfFalse:
      out[0] = pc + 1;
      out[1] = k.imm;
      return 2;
    default:
      out[0] = pc + 1;
      return 1;
  }
}

/// Immediate post-dominator of each instruction (Cooper, Harvey and
/// Kennedy's iteration over the reversed CFG); node n = code.size() is the
/// exit, reached by falling off the end. -1 marks an instruction with no
/// path to the exit.
std::vector<int> post_dominators(const std::vector<KInstr>& code) {
  const int n = static_cast<int>(code.size());
  std::vector<std::vector<int>> preds(static_cast<size_t>(n) + 1);
  int s[2];
  for (int pc = 0; pc < n; ++pc) {
    for (int i = 0, m = successors(code, pc, s); i < m; ++i) {
      preds[static_cast<size_t>(s[i])].push_back(pc);
    }
  }
  // Postorder of the reversed CFG from the exit, which numbers highest.
  std::vector<int> order;
  std::vector<int> number(static_cast<size_t>(n) + 1, -1);
  std::vector<char> seen(static_cast<size_t>(n) + 1, 0);
  std::vector<std::pair<int, size_t>> stack{{n, 0}};
  seen[static_cast<size_t>(n)] = 1;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    const std::vector<int>& in = preds[static_cast<size_t>(v)];
    if (next < in.size()) {
      const int u = in[next++];
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = 1;
        stack.emplace_back(u, 0);
      }
      continue;
    }
    number[static_cast<size_t>(v)] = static_cast<int>(order.size());
    order.push_back(v);
    stack.pop_back();
  }
  std::vector<int> ipdom(static_cast<size_t>(n) + 1, -1);
  ipdom[static_cast<size_t>(n)] = n;
  auto at = [](std::vector<int>& v, int i) -> int& {
    return v[static_cast<size_t>(i)];
  };
  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (at(number, a) < at(number, b)) a = at(ipdom, a);
      while (at(number, b) < at(number, a)) b = at(ipdom, b);
    }
    return a;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (*it == n) continue;
      int best = -1;
      for (int i = 0, m = successors(code, *it, s); i < m; ++i) {
        if (at(ipdom, s[i]) < 0) continue;
        best = best < 0 ? s[i] : intersect(s[i], best);
      }
      if (best != at(ipdom, *it)) {
        at(ipdom, *it) = best;
        changed = true;
      }
    }
  }
  return ipdom;
}

/// Runs one kernel program symbolically: each register holds the netlist
/// expression of its value. A kRet ends only the inputs that reach it: it
/// records its value, guarded by the branches on data that led there, and
/// the other arms of those branches go on from their joins, so the code
/// after a join is built once.
class Datapath {
 public:
  Datapath(const gpu::KernelProgram& program, std::vector<HExprPtr> params)
      : p_(program),
        n_(static_cast<int>(program.code.size())),
        ret_width_(width_of(program.ret_type)),
        params_(std::move(params)),
        ipdom_(post_dominators(program.code)),
        trips_(static_cast<size_t>(n_) + 1, 0) {}

  HExprPtr run() {
    Path path{Regs(static_cast<size_t>(p_.num_regs)), {}, false};
    run(0, n_, path, -1, 0);
    // validate() proved that no path falls off the end, so every input
    // returned. The first return whose guard holds wins.
    HExprPtr result = path.returns.back().value;
    for (auto r = path.returns.rbegin() + 1; r != path.returns.rend(); ++r) {
      const HExprPtr& g = r->guard;
      result = g->kind == rtl::HKind::kUnary && g->un_op == HUnOp::kNot
                   ? h_mux(g->a, result, r->value)
                   : h_mux(g, r->value, result);
    }
    return result;
  }

 private:
  using Regs = std::vector<HExprPtr>;

  /// A value a kRet returned for the inputs `guard` holds for (null: all).
  struct Return {
    HExprPtr guard;
    HExprPtr value;
  };

  /// The inputs that reach one point of the program: the registers of
  /// those that have not returned, and what the others returned.
  struct Path {
    Regs regs;
    std::vector<Return> returns;  // in order; the first that holds wins
    bool done = false;            // every input has returned
  };

  /// Runs `path` from `pc` until control reaches `stop` (the join of the
  /// enclosing branch on data, or the exit) or every input has returned.
  /// `floor` is that branch: a jump to it or above it would loop through
  /// it. `depth` counts the branches on data around this arm.
  void run(int pc, int stop, Path& path, int floor, int depth) {
    for (;;) {
      if (pc == stop) return;
      charge(1);
      const KInstr& k = p_.code[static_cast<size_t>(pc)];
      int next = pc + 1;
      switch (k.op) {
        case KOp::kRet:
          path.returns.push_back({nullptr, use(path.regs, k.a, ret_width_)});
          path.done = true;
          return;
        case KOp::kJump:
          next = k.imm;
          break;
        case KOp::kJumpIfFalse: {
          HExprPtr cond = use(path.regs, k.a, 1);
          if (cond->is_const()) {
            if (cond->value == 0) next = k.imm;
            break;
          }
          // A branch on data: both arms run to the join, then merge.
          const int join = ipdom_[static_cast<size_t>(pc)];
          if (join < 0) throw Exclude{kDataLoop};
          if (depth == kMaxBranchDepth) {
            throw Exclude{"datapath nests more than " +
                          std::to_string(kMaxBranchDepth) +
                          " branches on data"};
          }
          charge(path.regs.size() / 16);
          Path fall{path.regs, {}, false};
          Path jump{std::move(path.regs), {}, false};
          go(pc, pc + 1, pc);
          run(pc + 1, join, fall, pc, depth + 1);
          go(pc, k.imm, pc);
          run(k.imm, join, jump, pc, depth + 1);
          charge(fall.returns.size() + jump.returns.size());
          merge(cond, fall, jump, path);
          if (path.done) return;
          pc = join;
          continue;
        }
        default:
          define(k, path.regs);
          break;
      }
      go(pc, next, floor);
      pc = next;
    }
  }

  void charge(size_t steps) {
    steps_ += steps;
    if (steps_ > kMaxSteps) {
      throw Exclude{"datapath exceeds the synthesis budget of " +
                    std::to_string(kMaxSteps) + " steps"};
    }
  }

  /// Accounts one control transfer. A backward one is a taken back-edge of
  /// a loop with a constant bound; a forward one enters its target afresh.
  void go(int from, int to, int floor) {
    if (to <= floor) throw Exclude{kDataLoop};
    int& trips = trips_[static_cast<size_t>(to)];
    if (to > from) {
      trips = 0;
    } else if (++trips > kMaxUnroll) {
      throw Exclude{"loop exceeds the unroll budget of " +
                    std::to_string(kMaxUnroll)};
    }
  }

  /// Appends the returns of both arms of a branch on `cond` to `out`'s and
  /// joins their registers. Each arm's returns hold only for its inputs,
  /// unless an arm before it returned for all of them. Only the inputs that
  /// did not return read the registers, so an arm where all returned keeps
  /// none, and a register the two arms disagree on becomes a mux.
  static void merge(const HExprPtr& cond, Path& fall, Path& jump, Path& out) {
    const bool fall_first = fall.done || !jump.done;
    Path& first = fall_first ? fall : jump;
    Path& second = fall_first ? jump : fall;
    HExprPtr not_cond = h_unary(HUnOp::kNot, cond);
    const HExprPtr first_cond = fall_first ? cond : not_cond;
    const HExprPtr second_cond =
        first.done ? nullptr : fall_first ? not_cond : cond;
    for (Path* arm : {&first, &second}) {
      const HExprPtr& c = arm == &first ? first_cond : second_cond;
      for (Return& r : arm->returns) {
        out.returns.push_back(
            {!c ? r.guard : !r.guard ? c : h_binary(HBinOp::kAnd, c, r.guard),
             std::move(r.value)});
      }
    }
    out.done = fall.done && jump.done;
    if (fall.done || jump.done) {
      out.regs = std::move(fall.done ? jump.regs : fall.regs);
      return;
    }
    out.regs = std::move(fall.regs);
    for (size_t r = 0; r < out.regs.size(); ++r) {
      out.regs[r] = merge(cond, out.regs[r], jump.regs[r]);
    }
  }

  /// A value both arms of a branch on `cond` computed. One written on only
  /// one arm is dead after the join: validate() proved nothing reads it.
  static HExprPtr merge(const HExprPtr& cond, const HExprPtr& fall,
                        const HExprPtr& jump) {
    if (!fall || !jump) return nullptr;
    if (fall == jump) return fall;
    if (fall->width != jump->width) throw Exclude{"kernel IR is ill-typed"};
    return h_mux(cond, fall, jump);
  }

  static const HExprPtr& use(const Regs& regs, uint16_t r, int width) {
    const HExprPtr& v = regs[r];
    if (v->width != width) throw Exclude{"kernel IR is ill-typed"};
    return v;
  }

  void define(const KInstr& k, Regs& regs) {
    HExprPtr v;
    switch (k.op) {
      case KOp::kLoadParam:
        v = params_[k.a];
        break;
      case KOp::kLoadConst:
        v = constant(p_.consts[k.a]);
        break;
      case KOp::kLoadElem:
      case KOp::kArrayLen:
        throw Exclude{"array access in a filter body (no memory inference "
                      "in this backend)"};
      case KOp::kMov:
        v = regs[k.a];
        break;
      case KOp::kArith:
        v = arith(k, regs);
        break;
      case KOp::kNeg:
        v = h_unary(HUnOp::kNeg, use(regs, k.a, width_of(k.t)));
        break;
      case KOp::kCmp: {
        const int w = width_of(k.t);
        v = h_binary(compare_op(k.aux), use(regs, k.a, w), use(regs, k.b, w));
        break;
      }
      case KOp::kNot:
      case KOp::kBitFlip:
        v = h_unary(HUnOp::kNot, use(regs, k.a, 1));
        break;
      case KOp::kCast:
        v = cast(use(regs, k.a, width_of(k.t)), k.t, k.t2);
        break;
      case KOp::kIntrinsic:
        v = intrinsic(k, regs);
        break;
      case KOp::kJump:
      case KOp::kJumpIfFalse:
      case KOp::kRet:
        return;  // run() follows control flow itself
    }
    regs[k.dst] = std::move(v);
  }

  static HExprPtr constant(const gpu::KConst& c) {
    const int w = width_of(c.type);
    const uint64_t bits = w == 1    ? uint64_t{c.value.b != 0}
                          : w == 32 ? static_cast<uint32_t>(c.value.i32)
                                    : static_cast<uint64_t>(c.value.i64);
    return h_const(w, bits);
  }

  static HBinOp compare_op(uint8_t aux) {
    static constexpr HBinOp kSigned[] = {HBinOp::kEq,  HBinOp::kNe,
                                         HBinOp::kLtS, HBinOp::kLeS,
                                         HBinOp::kGtS, HBinOp::kGeS};
    return kSigned[aux];  // in CmpOp order
  }

  HExprPtr arith(const KInstr& k, const Regs& regs) const {
    const int w = width_of(k.t);
    const auto op = static_cast<ArithOp>(k.aux);
    const HExprPtr& a = use(regs, k.a, w);
    auto with_b = [&](HBinOp bin) {
      return h_binary(bin, a, use(regs, k.b, w));
    };
    switch (op) {
      case ArithOp::kAdd: return with_b(HBinOp::kAdd);
      case ArithOp::kSub: return with_b(HBinOp::kSub);
      case ArithOp::kMul: return with_b(HBinOp::kMul);
      case ArithOp::kAnd: return with_b(HBinOp::kAnd);
      case ArithOp::kOr: return with_b(HBinOp::kOr);
      case ArithOp::kXor: return with_b(HBinOp::kXor);
      case ArithOp::kNeg: return h_unary(HUnOp::kNeg, a);
      case ArithOp::kShl:
      case ArithOp::kShr: {
        // Java masks a shift distance to the operand width (& 31 for int,
        // & 63 for long), as the VM and the GPU simulator do. A constant
        // distance folds here, so the datapath keeps its constant shift.
        HExprPtr d = h_binary(HBinOp::kAnd, h_resize(regs[k.b], w, false),
                              h_const(w, w > 32 ? 63 : 31));
        const HBinOp shift = op == ArithOp::kShl ? HBinOp::kShl
                             : is_signed(k.t)    ? HBinOp::kShrA
                                                 : HBinOp::kShrL;
        return h_binary(shift, a, d);
      }
      case ArithOp::kDiv:
      case ArithOp::kRem: {
        // Constant operands still fold (unrolled loops); otherwise there
        // is no combinational divider.
        const HExprPtr& b = use(regs, k.b, w);
        if (!a->is_const() || !b->is_const()) {
          throw Exclude{"integer division has no combinational form here"};
        }
        if (b->value == 0) throw Exclude{"constant division by zero"};
        const int64_t q = bc::ops::div_rem(op, rtl::sign_extend(a->value, w),
                                           rtl::sign_extend(b->value, w));
        return h_const(w, static_cast<uint64_t>(q));
      }
    }
    return nullptr;  // validate() admits no other operator
  }

  /// Java's conversion: to boolean is `!= 0`; otherwise the value
  /// truncates, or extends by the sign of its source type.
  static HExprPtr cast(const HExprPtr& v, NumType from, NumType to) {
    const int w = width_of(to);
    if (to == NumType::kBool && v->width > 1) {
      return h_binary(HBinOp::kNe, v, h_const(v->width, 0));
    }
    return h_resize(v, w, is_signed(from));
  }

  HExprPtr intrinsic(const KInstr& k, const Regs& regs) const {
    const auto fn = static_cast<Intrinsic>(k.aux);
    const int w = width_of(k.t);
    switch (fn) {
      case Intrinsic::kAbs: {
        const HExprPtr& v = use(regs, k.a, w);
        return h_mux(h_binary(HBinOp::kLtS, v, h_const(w, 0)),
                     h_unary(HUnOp::kNeg, v), v);
      }
      case Intrinsic::kMin:
      case Intrinsic::kMax: {
        const HExprPtr& a = use(regs, k.a, w);
        const HExprPtr& b = use(regs, k.b, w);
        HExprPtr a_lt = h_binary(HBinOp::kLtS, a, b);
        return fn == Intrinsic::kMin ? h_mux(a_lt, a, b) : h_mux(a_lt, b, a);
      }
      default:
        throw Exclude{std::string("Math intrinsic '") + bc::to_string(fn) +
                      "' is not synthesizable (floating point)"};
    }
  }

  const gpu::KernelProgram& p_;
  const int n_;
  const int ret_width_;
  const std::vector<HExprPtr> params_;
  const std::vector<int> ipdom_;
  /// Per instruction: back-edges taken to it since control last entered it
  /// from ahead.
  std::vector<int> trips_;
  size_t steps_ = 0;
};

std::string module_name_for(const std::string& task_id) {
  std::string s = task_id;
  for (char& c : s) {
    if (c == '.' || c == ':') c = '_';
  }
  return s;
}

/// Wraps the program's datapath in the Fig. 4 read/compute/publish
/// handshake (or the pipelined variant).
FpgaCompileResult wrap_datapath(const gpu::KernelProgram& program,
                                const FpgaSynthOptions& options) {
  FpgaCompileResult result;
  auto module = std::make_unique<rtl::Module>();
  module->name = module_name_for(program.task_id);

  using rtl::SigKind;
  rtl::SigId rst = module->add_signal("rst", 1, SigKind::kInput);
  rtl::SigId in_ready = module->add_signal("inReady", 1, SigKind::kInput);

  FpgaPortMeta ports;
  ports.arity = static_cast<int>(program.params.size());
  ports.pipelined = options.pipelined;
  ports.latency = 3;
  ports.initiation_interval = options.pipelined ? 1 : 3;
  ports.out_width = width_of(program.ret_type);

  std::vector<rtl::SigId> in_data, in_regs;
  for (size_t i = 0; i < program.params.size(); ++i) {
    int w = width_of(program.params[i].type);
    std::string pname = "inData" + std::to_string(i);
    in_data.push_back(module->add_signal(pname, w, SigKind::kInput));
    in_regs.push_back(
        module->add_signal("in_reg" + std::to_string(i), w, SigKind::kReg));
    ports.in_data.push_back(pname);
    ports.in_widths.push_back(w);
  }
  rtl::SigId out_ready = module->add_signal("outReady", 1, SigKind::kOutput);
  rtl::SigId out_data =
      module->add_signal("outData", ports.out_width, SigKind::kOutput);
  rtl::SigId in_take = module->add_signal("inTake", 1, SigKind::kOutput);
  rtl::SigId result_reg =
      module->add_signal("result", ports.out_width, SigKind::kReg);

  std::vector<HExprPtr> args;
  for (size_t i = 0; i < in_regs.size(); ++i) {
    args.push_back(h_sig(in_regs[i], module->sig(in_regs[i]).width));
  }
  HExprPtr datapath = Datapath(program, std::move(args)).run();

  HExprPtr rst_e = h_sig(rst, 1);
  HExprPtr in_ready_e = h_sig(in_ready, 1);
  HExprPtr not_rst = h_unary(HUnOp::kNot, rst_e);

  if (!options.pipelined) {
    // Fig. 4 FSM: IDLE(0) -> COMPUTE(1) -> PUBLISH(2) -> IDLE.
    rtl::SigId state = module->add_signal("state", 2, SigKind::kReg);
    HExprPtr state_e = h_sig(state, 2);
    HExprPtr s_idle = h_binary(HBinOp::kEq, state_e, h_const(2, 0));
    HExprPtr s_comp = h_binary(HBinOp::kEq, state_e, h_const(2, 1));
    HExprPtr s_pub = h_binary(HBinOp::kEq, state_e, h_const(2, 2));
    HExprPtr taking = h_binary(
        HBinOp::kAnd, h_binary(HBinOp::kAnd, s_idle, in_ready_e), not_rst);

    for (size_t i = 0; i < in_regs.size(); ++i) {
      int w = module->sig(in_regs[i]).width;
      module->assign_next(
          in_regs[i],
          h_mux(taking, h_sig(in_data[i], w), h_sig(in_regs[i], w)));
    }
    module->assign_next(
        state,
        h_mux(rst_e, h_const(2, 0),
              h_mux(taking, h_const(2, 1),
                    h_mux(s_comp, h_const(2, 2),
                          h_mux(s_pub, h_const(2, 0), state_e)))));
    module->assign_next(
        result_reg,
        h_mux(s_comp, datapath, h_sig(result_reg, ports.out_width)));
    module->assign(out_ready, h_binary(HBinOp::kAnd, s_pub, not_rst));
    module->assign(out_data, h_sig(result_reg, ports.out_width));
    module->assign(in_take, h_binary(HBinOp::kAnd, s_idle, not_rst));
  } else {
    // 3-stage pipeline (read -> compute -> publish), II = 1.
    rtl::SigId v0 = module->add_signal("v0_valid", 1, SigKind::kReg);
    rtl::SigId v1 = module->add_signal("v1_valid", 1, SigKind::kReg);

    HExprPtr accept = h_binary(HBinOp::kAnd, in_ready_e, not_rst);
    for (size_t i = 0; i < in_regs.size(); ++i) {
      int w = module->sig(in_regs[i]).width;
      module->assign_next(
          in_regs[i],
          h_mux(accept, h_sig(in_data[i], w), h_sig(in_regs[i], w)));
    }
    module->assign_next(v0, h_mux(rst_e, h_const(1, 0), accept));
    module->assign_next(v1, h_mux(rst_e, h_const(1, 0), h_sig(v0, 1)));
    module->assign_next(
        result_reg,
        h_mux(h_sig(v0, 1), datapath, h_sig(result_reg, ports.out_width)));
    module->assign(out_ready, h_sig(v1, 1));
    module->assign(out_data, h_sig(result_reg, ports.out_width));
    module->assign(in_take, not_rst);
  }

  result.module = std::move(module);
  result.ports = std::move(ports);
  return result;
}

}  // namespace

FpgaCompileResult synthesize(const gpu::KernelProgram& program,
                             const FpgaSynthOptions& options) {
  gpu::validate(program);
  try {
    if (program.params.empty()) throw Exclude{"a filter takes no input"};
    for (const gpu::KernelParam& p : program.params) {
      if (p.mode == gpu::ParamMode::kWholeArray) {
        throw Exclude{"array parameters are not synthesizable here"};
      }
    }
    return wrap_datapath(program, options);
  } catch (const Exclude& ex) {
    FpgaCompileResult result;
    result.exclusion_reason = ex.reason;
    return result;
  }
}

}  // namespace lm::fpga
