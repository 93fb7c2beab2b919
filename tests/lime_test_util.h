// Shared helpers for frontend tests.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "lime/frontend.h"

namespace lm::lime::testing {

/// Compiles and expects success; on failure the diagnostics become the
/// assertion message.
inline FrontendResult compile_ok(const std::string& src) {
  FrontendResult r = compile_source(src);
  EXPECT_TRUE(r.ok()) << r.diags.to_string();
  return r;
}

/// Compiles and expects at least one error mentioning `needle`.
inline FrontendResult compile_err(const std::string& src,
                                  const std::string& needle) {
  FrontendResult r = compile_source(src);
  EXPECT_TRUE(r.diags.has_errors()) << "expected an error mentioning: "
                                    << needle;
  EXPECT_NE(r.diags.to_string().find(needle), std::string::npos)
      << "diagnostics were:\n"
      << r.diags.to_string();
  return r;
}

/// The verbatim Figure 1 program from the paper (bit enum + Bitflip).
inline const char* figure1_source() {
  return R"(
public value enum bit {
  zero, one;
  public bit ~ this {
    return this == zero ? one : zero;
  }
}

public class Bitflip {
  local static bit flip(bit b) {
    return ~b;
  }
  local static bit[[]] mapFlip(bit[[]] input) {
    var flipped = Bitflip @ flip(input);
    return flipped;
  }
  static bit[[]] taskFlip(bit[[]] input) {
    bit[] result = new bit[input.length];
    var flipit = input.source(1)
      => ([ task flip ])
      => result.<bit>sink();
    flipit.finish();
    return new bit[[]](result);
  }
}
)";
}

/// A user value enum with an operator, and a filter that applies it.
inline const char* trit_source() {
  return R"(
    public value enum trit {
      lo, mid, hi;
      public trit ~ this {
        return this == lo ? hi : this == hi ? lo : mid;
      }
    }
    class U { local static trit inv(trit t) { return ~t; } }
  )";
}

}  // namespace lm::lime::testing
