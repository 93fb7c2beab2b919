#include "runtime/repository.h"

#include <filesystem>
#include <fstream>

#include "util/error.h"
#include "util/strings.h"

namespace lm::runtime {

namespace fs = std::filesystem;

std::string bundle_filename(const std::string& task_id, DeviceKind device) {
  std::string name = task_id;
  for (char& c : name) {
    if (c == '.' || c == ':' || c == '/' || c == '\\') c = '_';
  }
  switch (device) {
    case DeviceKind::kGpu: return name + ".cl";
    case DeviceKind::kFpga: return name + ".v";
    case DeviceKind::kCpu: return name + ".bc.txt";
  }
  return name + ".artifact";
}

namespace {

std::string device_token(DeviceKind d) {
  switch (d) {
    case DeviceKind::kCpu: return "cpu";
    case DeviceKind::kGpu: return "gpu";
    case DeviceKind::kFpga: return "fpga";
  }
  return "?";
}

DeviceKind device_from_token(const std::string& s) {
  if (s == "cpu") return DeviceKind::kCpu;
  if (s == "gpu") return DeviceKind::kGpu;
  if (s == "fpga") return DeviceKind::kFpga;
  throw RuntimeError("bad device token in MANIFEST: " + s);
}

std::string signature_of(const ArtifactManifest& m) {
  std::string sig = "(";
  for (size_t i = 0; i < m.param_types.size(); ++i) {
    if (i) sig += ", ";
    sig += m.param_types[i]->to_string();
  }
  sig += ") -> ";
  sig += m.return_type ? m.return_type->to_string() : "void";
  sig += " arity=" + std::to_string(m.arity);
  return sig;
}

}  // namespace

std::vector<BundleEntry> write_artifact_bundle(const CompiledProgram& program,
                                               const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw RuntimeError("cannot create bundle directory " + dir + ": " +
                       ec.message());
  }

  std::vector<BundleEntry> entries;
  for (const Artifact* a : program.store.artifacts()) {
    const ArtifactManifest& m = a->manifest();
    BundleEntry e;
    e.task_id = m.task_id;
    e.device = m.device;
    e.filename = bundle_filename(m.task_id, m.device);
    e.signature = signature_of(m);

    std::ofstream out(fs::path(dir) / e.filename);
    if (!out) throw RuntimeError("cannot write " + e.filename);
    out << a->text();
    entries.push_back(std::move(e));
  }

  std::ofstream manifest(fs::path(dir) / "MANIFEST");
  if (!manifest) throw RuntimeError("cannot write MANIFEST");
  manifest << "# Liquid Metal artifact bundle\n";
  manifest << "# task_id\tdevice\tfile\tsignature\n";
  for (const auto& e : entries) {
    manifest << e.task_id << "\t" << device_token(e.device) << "\t"
             << e.filename << "\t" << e.signature << "\n";
  }
  return entries;
}

std::vector<BundleEntry> read_bundle_manifest(const std::string& dir) {
  std::ifstream in(fs::path(dir) / "MANIFEST");
  if (!in) throw RuntimeError("no MANIFEST in " + dir);
  std::vector<BundleEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto fields = split(line, '\t');
    if (fields.size() != 4) {
      throw RuntimeError("malformed MANIFEST line: " + line);
    }
    BundleEntry e;
    e.task_id = fields[0];
    e.device = device_from_token(fields[1]);
    e.filename = fields[2];
    e.signature = fields[3];
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace lm::runtime
