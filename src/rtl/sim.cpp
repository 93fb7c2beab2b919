#include "rtl/sim.h"

#include <unordered_map>

namespace lm::rtl {

// ---------------------------------------------------------------------------
// CompiledModule
// ---------------------------------------------------------------------------

namespace {
constexpr uint32_t kNoSlot = UINT32_MAX;  // an operand or root_dst left unset
}  // namespace

CompiledModule::CompiledModule(const Module& module) : module_(module) {
  const std::vector<int> comb_order = module_.validate();
  const size_t nsig = module_.signals.size();
  init_.assign(nsig, 0);
  for (size_t i = 0; i < nsig; ++i) {
    const Signal& s = module_.signals[i];
    if (s.kind == SigKind::kReg) init_[i] = mask_to_width(s.init, s.width);
  }

  std::unordered_map<const HExpr*, uint32_t> slot_of;
  auto new_slot = [&](uint64_t init) {
    init_.push_back(init);
    return static_cast<uint32_t>(init_.size() - 1);
  };
  // Appends an op for every node under `root` not lowered yet, children
  // first, and returns the slot holding root's value. A root that needs an
  // op of its own writes `root_dst` when one is given. Iterative postorder:
  // unrolled datapaths nest too deep to recurse.
  auto lower = [&](const HExprPtr& root, std::vector<Op>& ops,
                   uint32_t root_dst) {
    std::vector<const HExpr*> stack{root.get()};
    while (!stack.empty()) {
      const HExpr* n = stack.back();
      if (slot_of.count(n)) {
        stack.pop_back();
        continue;
      }
      if (n->kind == HKind::kSig || n->kind == HKind::kConst) {
        slot_of.emplace(n, n->kind == HKind::kSig
                               ? static_cast<uint32_t>(n->sig)
                               : new_slot(n->value));
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (const HExpr* child : {n->a.get(), n->b.get(), n->c.get()}) {
        if (child && !slot_of.count(child)) {
          stack.push_back(child);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      Op op{n->kind, 0, static_cast<uint8_t>(n->width),
            static_cast<uint8_t>(n->a->width), 0, slot_of.at(n->a.get()),
            kNoSlot, kNoSlot};
      if (n->kind == HKind::kUnary) op.op = static_cast<uint8_t>(n->un_op);
      if (n->kind == HKind::kBinary) op.op = static_cast<uint8_t>(n->bin_op);
      if (n->b) op.b = slot_of.at(n->b.get());
      if (n->c) op.c = slot_of.at(n->c.get());
      op.dst = n == root.get() && root_dst != kNoSlot ? root_dst : new_slot(0);
      slot_of.emplace(n, op.dst);
      ops.push_back(op);
    }
    return slot_of.at(root.get());
  };

  // Combinational assigns first, so that a node they share with a next-state
  // expression lives in the settled part of the slot file and the clock edge
  // reads it instead of computing it again.
  for (int ci : comb_order) {
    const CombAssign& a = module_.comb[static_cast<size_t>(ci)];
    const auto target = static_cast<uint32_t>(a.target);
    uint32_t v = lower(a.expr, comb_, target);
    if (v != target) {
      comb_.push_back({HKind::kSig, 0, 0, 0, target, v, kNoSlot, kNoSlot});
    }
  }
  for (const SeqAssign& s : module_.seq) {
    latches_.push_back(
        {static_cast<uint32_t>(s.target), lower(s.next, seq_, kNoSlot)});
  }

  comb_reads_.assign(nsig, false);
  for (const Op& op : comb_) {
    for (uint32_t operand : {op.a, op.b, op.c}) {
      if (operand < nsig) comb_reads_[operand] = true;
    }
  }
}

void CompiledModule::run(const std::vector<Op>& ops, uint64_t* s) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case HKind::kUnary:
        s[op.dst] = fold_unary(static_cast<HUnOp>(op.op), s[op.a], op.width,
                               op.a_width);
        break;
      case HKind::kBinary:
        s[op.dst] = fold_binary(static_cast<HBinOp>(op.op), s[op.a], s[op.b],
                                op.a_width);
        break;
      case HKind::kMux:
        s[op.dst] = s[op.a] ? s[op.b] : s[op.c];
        break;
      default:  // kSig: a copy
        s[op.dst] = s[op.a];
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// RtlSim
// ---------------------------------------------------------------------------

RtlSim::RtlSim(const Module& module)
    : RtlSim(std::make_shared<const CompiledModule>(module)) {}

RtlSim::RtlSim(std::shared_ptr<const CompiledModule> compiled)
    : compiled_(std::move(compiled)),
      slots_(compiled_->init_),
      latched_(compiled_->latches_.size()) {
  settle();
}

void RtlSim::poke(const std::string& name, uint64_t value) {
  SigId id = module().find(name);
  LM_CHECK_MSG(id >= 0, "no signal '" << name << "'");
  poke(id, value);
}

void RtlSim::poke(SigId id, uint64_t value) {
  const Signal& s = module().sig(id);
  LM_CHECK_MSG(s.kind == SigKind::kInput,
               "poke target '" << s.name << "' is not an input");
  slots_[static_cast<size_t>(id)] = mask_to_width(value, s.width);
  if (compiled_->comb_reads_[static_cast<size_t>(id)]) dirty_ = true;
}

uint64_t RtlSim::peek(const std::string& name) const {
  SigId id = module().find(name);
  LM_CHECK_MSG(id >= 0, "no signal '" << name << "'");
  return peek(id);
}

uint64_t RtlSim::peek(SigId id) const {
  const_cast<RtlSim*>(this)->settle();
  return slots_[static_cast<size_t>(id)];
}

void RtlSim::settle() {
  if (!dirty_) return;
  CompiledModule::run(compiled_->comb_, slots_.data());
  dirty_ = false;
}

void RtlSim::clock_edge() {
  settle();
  // Non-blocking semantics: compute all nexts against pre-edge values.
  const CompiledModule& cm = *compiled_;
  CompiledModule::run(cm.seq_, slots_.data());
  for (size_t i = 0; i < cm.latches_.size(); ++i) {
    latched_[i] = slots_[cm.latches_[i].next];
  }
  for (size_t i = 0; i < cm.latches_.size(); ++i) {
    slots_[cm.latches_[i].reg] = latched_[i];
  }
  dirty_ = true;
}

void RtlSim::step(int n) {
  for (int i = 0; i < n; ++i) {
    settle();
    if (vcd_) vcd_->sample(cycle_, signal_values());
    clock_edge();
    settle();
    ++cycle_;
  }
}

void RtlSim::reset(int cycles) {
  SigId rst = module().find("rst");
  if (rst >= 0) {
    poke(rst, 1);
    step(cycles);
    poke(rst, 0);
  }
  settle();
}

void RtlSim::attach_vcd(std::shared_ptr<VcdWriter> vcd) {
  vcd_ = std::move(vcd);
}

// ---------------------------------------------------------------------------
// VCD
// ---------------------------------------------------------------------------

VcdWriter::VcdWriter(const Module& module) : module_(module) {}

std::string VcdWriter::id_for(size_t index) const {
  // VCD identifier codes: printable ASCII 33..126, base-94 little-endian.
  std::string id;
  size_t v = index;
  do {
    id.push_back(static_cast<char>(33 + v % 94));
    v /= 94;
  } while (v != 0);
  return id;
}

void VcdWriter::sample(uint64_t cycle, std::span<const uint64_t> values) {
  uint64_t t = cycle * 10;
  body_ << "#" << t << "\n";
  body_ << "1!\n";  // clk high
  for (size_t i = 0; i < values.size(); ++i) {
    if (!first_ && values[i] == last_[i]) continue;
    const Signal& s = module_.signals[i];
    if (s.width == 1) {
      body_ << (values[i] ? "1" : "0") << id_for(i + 1) << "\n";
    } else {
      body_ << "b";
      for (int bit = s.width - 1; bit >= 0; --bit) {
        body_ << ((values[i] >> bit) & 1);
      }
      body_ << " " << id_for(i + 1) << "\n";
    }
  }
  body_ << "#" << t + 5 << "\n0!\n";  // clk low
  last_.assign(values.begin(), values.end());
  first_ = false;
}

std::string VcdWriter::str() const {
  std::ostringstream os;
  os << "$date today $end\n";
  os << "$version Liquid Metal RTL simulator $end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module " << module_.name << " $end\n";
  os << "$var wire 1 ! clk $end\n";
  for (size_t i = 0; i < module_.signals.size(); ++i) {
    const Signal& s = module_.signals[i];
    const char* kind = s.kind == SigKind::kReg ? "reg" : "wire";
    os << "$var " << kind << " " << s.width << " " << id_for(i + 1) << " "
       << s.name << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";
  os << body_.str();
  return os.str();
}

}  // namespace lm::rtl
