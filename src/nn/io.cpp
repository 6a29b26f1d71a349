#include "nn/io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace pcnna::nn {
namespace {

constexpr char kMagic[4] = {'P', 'C', 'N', 'T'};
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ofstream& out, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

std::uint64_t read_u64(std::ifstream& in) {
  unsigned char bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  PCNNA_CHECK_MSG(in.good(), "tensor file truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return v;
}

std::string shape_text(const Shape4& s) {
  std::ostringstream os;
  os << '{' << s.n << ", " << s.c << ", " << s.h << ", " << s.w << '}';
  return os.str();
}

/// load_tensor(path), checked against the shape the network implies for
/// `field` (e.g. "fc weight").
Tensor load_shaped(const std::string& path, const std::string& field,
                   const Shape4& expected) {
  Tensor t = load_tensor(path);
  PCNNA_CHECK_MSG(t.shape() == expected,
                  "'" << path << "': " << field << " has shape "
                      << shape_text(t.shape()) << ", but the network needs "
                      << shape_text(expected));
  return t;
}

} // namespace

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("save_tensor: cannot open '" + path + "'");
  out.write(kMagic, 4);
  write_u64(out, kVersion);
  const Shape4& s = t.shape();
  write_u64(out, s.n);
  write_u64(out, s.c);
  write_u64(out, s.h);
  write_u64(out, s.w);
  for (double v : t.data()) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    write_u64(out, bits);
  }
  if (!out) throw Error("save_tensor: write to '" + path + "' failed");
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("load_tensor: cannot open '" + path + "'");
  char magic[4];
  in.read(magic, 4);
  PCNNA_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                  "'" << path << "' is not a PCNT tensor file");
  const std::uint64_t version = read_u64(in);
  PCNNA_CHECK_MSG(version == kVersion,
                  "'" << path << "': unsupported version " << version);
  Shape4 shape;
  shape.n = read_u64(in);
  shape.c = read_u64(in);
  shape.h = read_u64(in);
  shape.w = read_u64(in);
  // Bound every running product before it is formed: Shape4::elements()
  // wraps modulo 2^64, so n = 2^63 + 1, c = 2 would otherwise pass as 2.
  constexpr std::uint64_t kMaxElements = 1ull << 34;
  const std::pair<const char*, std::uint64_t> dims[] = {
      {"n", shape.n}, {"c", shape.c}, {"h", shape.h}, {"w", shape.w}};
  std::uint64_t elements = 1;
  for (const auto& [field, extent] : dims) {
    PCNNA_CHECK_MSG(extent > 0, "'" << path << "': implausible shape: field "
                                    << field << " is 0");
    PCNNA_CHECK_MSG(extent <= (kMaxElements - 1) / elements,
                    "'" << path << "': implausible shape: field " << field
                        << " = " << extent << " takes the element count to"
                        << " 2^34 or more");
    elements *= extent;
  }
  std::vector<double> data(elements);
  for (double& v : data) {
    const std::uint64_t bits = read_u64(in);
    std::memcpy(&v, &bits, 8);
  }
  return Tensor(shape, std::move(data));
}

void save_network_weights(const std::string& directory,
                          const std::string& prefix,
                          const NetWeights& weights) {
  for (std::size_t i = 0; i < weights.weight.size(); ++i) {
    if (weights.weight[i].empty()) continue;
    const std::string base = directory + "/" + prefix + "_";
    save_tensor(base + "w" + std::to_string(i) + ".pcnt", weights.weight[i]);
    if (!weights.bias[i].empty())
      save_tensor(base + "b" + std::to_string(i) + ".pcnt", weights.bias[i]);
  }
}

NetWeights load_network_weights(const std::string& directory,
                                const std::string& prefix,
                                const Network& net) {
  NetWeights weights;
  weights.weight.resize(net.ops().size());
  weights.bias.resize(net.ops().size());
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    const LayerOp& op = net.ops()[i];
    std::string kind;
    Shape4 weight_shape;
    Shape4 bias_shape;
    if (op.kind == OpKind::kConv) {
      kind = "conv";
      weight_shape = {op.conv.K, op.conv.nc, op.conv.m, op.conv.m};
      bias_shape = {1, op.conv.K, 1, 1};
    } else if (op.kind == OpKind::kFullyConnected) {
      kind = "fc";
      weight_shape = {op.fc.out, net.shape_before(i).elements(), 1, 1};
      bias_shape = {1, op.fc.out, 1, 1};
    } else {
      continue;
    }
    const std::string base = directory + "/" + prefix + "_";
    const std::string index = std::to_string(i);
    weights.weight[i] = load_shaped(base + "w" + index + ".pcnt",
                                    kind + " weight of op " + index,
                                    weight_shape);
    weights.bias[i] = load_shaped(base + "b" + index + ".pcnt",
                                  kind + " bias of op " + index, bias_shape);
  }
  return weights;
}

} // namespace pcnna::nn
