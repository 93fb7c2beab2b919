// Bytecode interpreter — the CPU execution substrate (the "JVM" of Fig. 2).
//
// Two host-interface hooks let the Liquid Metal runtime take over the parts
// of execution it can accelerate or schedule:
//
//   * AccelHooks — offered every map/reduce before interpretation; a GPU
//     device can claim the whole data-parallel operation (this is how the
//     paper's companion work got its 12×–431× GPU speedups).
//   * TaskGraphHost — receives the task-graph construction ops (§4.1);
//     the real runtime builds runtime task objects and schedules threads.
//
// When no hooks are installed, a built-in DefaultTaskHost executes task
// graphs inline, so a bytecode-only configuration runs every program
// (the paper's guarantee that the CPU artifact is always complete).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bytecode/module.h"

namespace lm::bc {

class Interpreter;

/// The VM's operators: Java's rules (bytecode/ops.h) on Values of NumType
/// `t`. The constant folder evaluates with these same functions. In arith,
/// kNeg is unary and ignores b.
Value arith(ArithOp op, NumType t, const Value& a, const Value& b);
bool compare(CmpOp op, NumType t, const Value& a, const Value& b);
Value cast(NumType from, NumType to, const Value& v);

/// Accelerator hook for data-parallel operators (§2.2).
class AccelHooks {
 public:
  virtual ~AccelHooks() = default;

  /// Offered a whole map operation. `args` are the operands (mix of arrays
  /// and broadcast scalars, `array_mask` bit i set for arrays). Returns true
  /// when the accelerator executed it and stored the result in `out`.
  virtual bool try_map(const std::string& task_id,
                       std::span<const Value> args, uint32_t array_mask,
                       Value* out) = 0;

  /// Offered a whole reduce operation over `array`.
  virtual bool try_reduce(const std::string& task_id, const Value& array,
                          Value* out) = 0;
};

/// Host interface receiving task-graph construction and execution ops.
class TaskGraphHost {
 public:
  virtual ~TaskGraphHost() = default;

  virtual Value make_source(Value array, int rate) = 0;
  virtual Value make_sink(Value array) = 0;
  virtual Value make_task(const std::string& task_id, int method_index,
                          bool relocated) = 0;
  virtual Value connect(Value lhs, Value rhs) = 0;
  virtual void start(Value graph) = 0;
  virtual void finish(Value graph) = 0;
};

class Interpreter {
 public:
  explicit Interpreter(const BytecodeModule& module);

  /// Installs hooks (may be null to uninstall). Not owned.
  void set_accel_hooks(AccelHooks* hooks) { hooks_ = hooks; }
  void set_task_host(TaskGraphHost* host) { task_host_ = host; }

  /// Calls a method by qualified name ("Bitflip.flip"). For instance
  /// methods the receiver is args[0].
  Value call(const std::string& qualified_name, std::vector<Value> args);
  Value call(int method_index, std::vector<Value> args);

  const BytecodeModule& module() const { return module_; }

  /// Executed-instruction counter (all frames); benchmarks report it.
  uint64_t instructions_executed() const { return icount_; }
  void reset_stats() { icount_ = 0; }

  /// Applies a pure method elementwise — shared by the default map path
  /// and the default task host.
  Value run_map(int method_index, std::span<const Value> args,
                uint32_t array_mask);
  Value run_reduce(int method_index, const Value& array);

 private:
  Value run_frame(const CompiledMethod& m, std::vector<Value> locals);

  /// The installed host, or a lazily-created DefaultTaskHost.
  TaskGraphHost& host();

  const BytecodeModule& module_;
  AccelHooks* hooks_ = nullptr;
  TaskGraphHost* task_host_ = nullptr;
  std::unique_ptr<TaskGraphHost> default_host_;
  uint64_t icount_ = 0;
  int call_depth_ = 0;
};

/// Inline, single-threaded task-graph execution used when no runtime is
/// attached: validates the linear pipeline shape and streams elements
/// through the filters sequentially.
class DefaultTaskHost : public TaskGraphHost {
 public:
  explicit DefaultTaskHost(Interpreter& interp) : interp_(interp) {}

  Value make_source(Value array, int rate) override;
  Value make_sink(Value array) override;
  Value make_task(const std::string& task_id, int method_index,
                  bool relocated) override;
  Value connect(Value lhs, Value rhs) override;
  void start(Value graph) override;
  void finish(Value graph) override;

 private:
  Interpreter& interp_;
};

}  // namespace lm::bc
