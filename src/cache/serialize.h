// Binary codecs for compiled artifacts + canonical content bytes for keys.
//
// Two distinct jobs live here, both feeding the persistent artifact cache
// (artifact_cache.h):
//
//  * Payload codecs — full, lossless round-trips of the three backend
//    artifact bodies: the whole-program BytecodeModule, a GPU
//    KernelProgram (including its OpenCL text and range facts, so a warm
//    start skips the interval pass too), and an FPGA compile result
//    (RTL netlist + port metadata; the Verilog text is printed from the
//    netlist when someone reads it). All layouts ride the
//    ByteWriter/ByteReader little-endian primitives — the same byte
//    conventions as the serde wire format and the LMRP protocol.
//
//  * Canonical content bytes — the *keying* side. A cache key must be a
//    function of what the backend actually consumes, not of module-global
//    index assignment: two programs can contain an identical method whose
//    const-pool/method-table indices differ. canonical_method_bytes()
//    therefore walks the bytecode closure of a task (BFS over kCall/kMap/
//    kReduce edges) and re-expresses every pool reference by content:
//    kConst inlines the constant's value, call-like ops inline the callee's
//    qualified name (with the callee body itself visited once), task ops
//    inline the task-id string. The resulting byte string is stable across
//    unrelated edits elsewhere in the program — the property that makes
//    warm-start hits safe, not just likely.
//
// Deserialized lime::TypeRefs carry decl == nullptr (the AST they were
// resolved against is gone). Every consumer of a cached module's types —
// elem_code_for, marshaling, manifests — keys on TypeKind/class_name only,
// which is why this is sound; new consumers that dereference decl must not
// be fed cached modules.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bytecode/module.h"
#include "fpga/synth.h"
#include "gpu/kernel_ir.h"
#include "util/byte_buffer.h"

namespace lm::cache {

// -- payload codecs --------------------------------------------------------

std::vector<uint8_t> encode_bytecode_module(const bc::BytecodeModule& m);
/// Throws RuntimeError on truncated/malformed bytes and on any operand the
/// VM would use as an out-of-range index or enum (the cache layer turns
/// that into a miss).
std::unique_ptr<bc::BytecodeModule> decode_bytecode_module(
    std::span<const uint8_t> bytes);

std::vector<uint8_t> encode_kernel_program(const gpu::KernelProgram& p);
std::unique_ptr<gpu::KernelProgram> decode_kernel_program(
    std::span<const uint8_t> bytes);

/// Serializes the synthesized module + port metadata. The exclusion fields
/// are not persisted: exclusions are never cached (the suitability check
/// reruns each compile and is cheap).
std::vector<uint8_t> encode_fpga_result(const fpga::FpgaCompileResult& r);
/// Same encoding from the parts an instantiated FpgaFilter exposes (the
/// device server re-serializes live artifacts for the compile service).
std::vector<uint8_t> encode_fpga_parts(const rtl::Module& module,
                                       const fpga::FpgaPortMeta& ports);
/// The decoded module is validate()d and its port metadata checked against
/// it before returning: arity, the data ports' names, directions and
/// widths, the 1-bit handshake ports, and a latency and initiation
/// interval of at least one cycle. A payload that fails throws, which the
/// cache layer and the compile-service client treat as a miss.
fpga::FpgaCompileResult decode_fpga_result(std::span<const uint8_t> bytes);

// -- canonical content bytes (cache keying) --------------------------------

/// Appends the canonical bytes of `root`'s bytecode closure to `out`.
/// Returns false — leaving `out` in an unspecified state — when the task is
/// uncacheable: a method in the closure failed to lower
/// (unsupported_reason) or references an out-of-range pool entry.
bool canonical_method_bytes(const bc::BytecodeModule& module,
                            const std::string& root, ByteWriter& out);

/// Canonical bytes for a fused segment: the member closures in chain
/// order, with stage separators so (a,bc) and (ab,c) cannot collide.
bool canonical_chain_bytes(const bc::BytecodeModule& module,
                           const std::vector<std::string>& roots,
                           ByteWriter& out);

}  // namespace lm::cache
