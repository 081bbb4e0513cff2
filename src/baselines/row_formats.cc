// Raw (row-oriented varint tuples) and Array (dense fixed-width) formats.

#include <cstring>

#include "baselines/storage_format.h"
#include "compress/varint.h"

namespace dslog {

namespace {

constexpr char kRawMagic[4] = {'R', 'A', 'W', '1'};
constexpr char kArrMagic[4] = {'A', 'R', 'R', '1'};

// Shared header: arities and shapes.
void PutHeader(const LineageRelation& rel, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(rel.out_ndim()));
  PutVarint64(out, static_cast<uint64_t>(rel.in_ndim()));
  for (int64_t d : rel.out_shape()) PutVarint64(out, static_cast<uint64_t>(d));
  for (int64_t d : rel.in_shape()) PutVarint64(out, static_cast<uint64_t>(d));
  PutVarint64(out, static_cast<uint64_t>(rel.num_rows()));
}

bool GetHeader(const std::string& data, size_t* pos, LineageRelation* rel,
               uint64_t* nrows) {
  uint64_t l, m;
  if (!GetVarint64(data, pos, &l) || !GetVarint64(data, pos, &m)) return false;
  if (l > 64 || m > 64) return false;
  std::vector<int64_t> out_shape(l), in_shape(m);
  for (auto& d : out_shape) {
    uint64_t v;
    if (!GetVarint64(data, pos, &v)) return false;
    d = static_cast<int64_t>(v);
  }
  for (auto& d : in_shape) {
    uint64_t v;
    if (!GetVarint64(data, pos, &v)) return false;
    d = static_cast<int64_t>(v);
  }
  if (!GetVarint64(data, pos, nrows)) return false;
  *rel = LineageRelation(static_cast<int>(l), static_cast<int>(m));
  rel->set_shapes(out_shape, in_shape);
  return true;
}

class RawFormat : public StorageFormat {
 public:
  std::string name() const override { return "Raw"; }

  std::string Encode(const LineageRelation& rel) const override {
    std::string out;
    out.append(kRawMagic, 4);
    PutHeader(rel, &out);
    // Row-oriented: tuple values varint-packed in order, no cross-row
    // compression (row-store layout).
    for (int64_t v : rel.flat()) PutVarint64(&out, static_cast<uint64_t>(v));
    return out;
  }

  Result<LineageRelation> Decode(const std::string& data) const override {
    if (data.size() < 4 || std::memcmp(data.data(), kRawMagic, 4) != 0)
      return Status::Corruption("RAW1: bad magic");
    size_t pos = 4;
    LineageRelation rel;
    uint64_t nrows;
    if (!GetHeader(data, &pos, &rel, &nrows))
      return Status::Corruption("RAW1: bad header");
    size_t total = static_cast<size_t>(nrows) * rel.arity();
    rel.mutable_flat().reserve(total);
    for (size_t i = 0; i < total; ++i) {
      uint64_t v;
      if (!GetVarint64(data, &pos, &v))
        return Status::Corruption("RAW1: truncated tuples");
      rel.mutable_flat().push_back(static_cast<int64_t>(v));
    }
    return rel;
  }
};

class ArrayFormat : public StorageFormat {
 public:
  std::string name() const override { return "Array"; }

  std::string Encode(const LineageRelation& rel) const override {
    std::string out;
    out.append(kArrMagic, 4);
    PutHeader(rel, &out);
    // Dense fixed-width payload, numpy-style: rows x arity int64 cells.
    size_t start = out.size();
    out.resize(start + rel.flat().size() * sizeof(int64_t));
    if (!rel.flat().empty())  // empty vector may hand memcpy a null src
      std::memcpy(out.data() + start, rel.flat().data(),
                  rel.flat().size() * sizeof(int64_t));
    return out;
  }

  Result<LineageRelation> Decode(const std::string& data) const override {
    if (data.size() < 4 || std::memcmp(data.data(), kArrMagic, 4) != 0)
      return Status::Corruption("ARR1: bad magic");
    size_t pos = 4;
    LineageRelation rel;
    uint64_t nrows;
    if (!GetHeader(data, &pos, &rel, &nrows))
      return Status::Corruption("ARR1: bad header");
    size_t total = static_cast<size_t>(nrows) * rel.arity();
    if (data.size() - pos != total * sizeof(int64_t))
      return Status::Corruption("ARR1: payload size mismatch");
    rel.mutable_flat().resize(total);
    if (total > 0)  // empty vector may hand memcpy a null dst
      std::memcpy(rel.mutable_flat().data(), data.data() + pos,
                  total * sizeof(int64_t));
    return rel;
  }
};

}  // namespace

std::unique_ptr<StorageFormat> MakeRawFormat() {
  return std::make_unique<RawFormat>();
}

std::unique_ptr<StorageFormat> MakeArrayFormat() {
  return std::make_unique<ArrayFormat>();
}

std::string RelationToCsv(const LineageRelation& relation) {
  std::string out;
  for (int k = 0; k < relation.out_ndim(); ++k) {
    if (k) out += ",";
    out.append("b").append(std::to_string(k + 1));
  }
  for (int k = 0; k < relation.in_ndim(); ++k) {
    out += ",a" + std::to_string(k + 1);
  }
  out += "\n";
  const int arity = relation.arity();
  for (int64_t r = 0; r < relation.num_rows(); ++r) {
    auto row = relation.Row(r);
    for (int k = 0; k < arity; ++k) {
      if (k) out += ",";
      out += std::to_string(row[static_cast<size_t>(k)]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace dslog
