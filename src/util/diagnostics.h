// Diagnostic collection for the Lime frontend.
//
// The frontend never throws on bad user input; it records diagnostics here.
// This mirrors the paper's behaviour of reporting, e.g., "relocation brackets
// present but task graph shape not statically determinable" as a compile-time
// error message (§3).
//
// Diagnostics optionally carry a stable machine-readable code. The analysis
// framework (src/analysis/) uses the LM numbering scheme:
//   LM1xx  semantic dataflow findings (use-before-init, effect violations)
//   LM2xx  task-graph hazards
//   LM4xx  accelerator-suitability notes (GPU/FPGA exclusions, demotions)
// LM3xx is unused: kernel IR and netlists have validators that throw
// instead (gpu::validate, rtl::Module::validate).
#pragma once

#include <string>
#include <vector>

#include "util/source_location.h"

namespace lm {

enum class Severity { kNote, kWarning, kError };

struct Diagnostic {
  Severity severity = Severity::kError;
  SourceLoc loc;
  std::string message;
  /// Stable code ("LM101"), empty for legacy frontend diagnostics.
  std::string code;
};

const char* to_string(Severity s);

/// Accumulates diagnostics during a frontend run. Cheap to copy around by
/// reference; owned by the CompilerDriver.
///
/// Identical diagnostics (same severity, code, location and message) are
/// recorded once — analyses that revisit the same expression along multiple
/// paths cannot flood the output.
class DiagnosticEngine {
 public:
  void error(SourceLoc loc, std::string message);
  void warning(SourceLoc loc, std::string message);
  void note(SourceLoc loc, std::string message);

  /// Records a coded diagnostic (deduplicated).
  void report(Severity severity, std::string code, SourceLoc loc,
              std::string message);

  /// Appends every diagnostic of `other` (deduplicated).
  void merge(const DiagnosticEngine& other);

  bool has_errors() const { return error_count_ > 0; }
  int error_count() const { return error_count_; }
  int warning_count() const { return warning_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// Diagnostics in deterministic presentation order: (line, column), ties
  /// broken by insertion order. Location-less diagnostics sort first.
  std::vector<Diagnostic> sorted() const;

  /// All diagnostics in presentation order, one per line,
  /// "error 3:14: message" / "warning LM101 3:14: message" style.
  std::string to_string() const;

  void clear();

 private:
  void push(Diagnostic d);

  std::vector<Diagnostic> diags_;
  int error_count_ = 0;
  int warning_count_ = 0;
};

/// Renders one diagnostic in the canonical single-line form.
std::string to_string(const Diagnostic& d);

}  // namespace lm
