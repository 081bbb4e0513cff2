#include "storage/signatures.h"

#include <charconv>
#include <cstring>
#include <utility>

#include "compress/varint.h"
#include "provrc/serialize.h"

namespace dslog {

namespace {

// Predictor-state blob format (versioned; see SerializeState).
constexpr char kStateMagic[4] = {'R', 'P', 'S', '1'};

/// The table section of a base or dim entry: count, then one
/// length-prefixed PRC1 table each.
std::string EncodeTables(const std::vector<CompressedTable>& tables) {
  std::string out;
  PutVarint64(&out, tables.size());
  for (const CompressedTable& t : tables)
    PutLengthPrefixed(&out, SerializeCompressedTable(t));
  return out;
}

/// Parses an EncodeTables section at `*pos`, decoding every table; the
/// tables land in `out` unless it is null.
Status GetTables(std::string_view src, size_t* pos,
                 std::vector<CompressedTable>* out) {
  uint64_t num_tables;
  if (!GetVarint64(src, pos, &num_tables))
    return Status::Corruption("predictor state: table count");
  for (uint64_t t = 0; t < num_tables; ++t) {
    std::string bytes;
    if (!GetLengthPrefixed(src, pos, &bytes))
      return Status::Corruption("predictor state: truncated table");
    DSLOG_ASSIGN_OR_RETURN(CompressedTable table,
                           DeserializeCompressedTable(bytes));
    if (out != nullptr) out->push_back(std::move(table));
  }
  return Status::OK();
}

void PutShape(std::string* dst, const std::vector<int64_t>& shape) {
  PutVarint64(dst, shape.size());
  for (int64_t d : shape) PutVarint64(dst, static_cast<uint64_t>(d));
}

/// The body of a gen entry: count, the generalized tables, then the first
/// call's input shapes and output shape.
std::string EncodeGen(const std::vector<GeneralizedTable>& tables,
                      const std::vector<std::vector<int64_t>>& first_shapes,
                      const std::vector<int64_t>& first_out_shape) {
  std::string out;
  PutVarint64(&out, tables.size());
  for (const GeneralizedTable& t : tables) t.AppendTo(&out);
  PutVarint64(&out, first_shapes.size());
  for (const auto& shape : first_shapes) PutShape(&out, shape);
  PutShape(&out, first_out_shape);
  return out;
}

/// Appends the decimal form of `v` (std::to_chars: no locale, no
/// temporary string).
template <typename Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

// Key formats are persisted inside the serialized base/dim/gen maps, so
// they must stay byte-stable across releases. Every key starts with the
// gen key; shape-bearing arguments stay in it (they define the lineage
// pattern "up to pseudo-randomness", §VI.A).
void AppendGenKey(std::string* key, const std::string& op_name,
                  uint64_t args_hash) {
  key->append(op_name);
  key->push_back('#');
  AppendDecimal(key, args_hash);
}

bool GetShape(std::string_view src, size_t* pos, std::vector<int64_t>* out) {
  uint64_t n;
  if (!GetVarint64(src, pos, &n) || n > 64) return false;
  out->resize(n);
  for (auto& d : *out) {
    uint64_t v;
    if (!GetVarint64(src, pos, &v)) return false;
    d = static_cast<int64_t>(v);
  }
  return true;
}

}  // namespace

std::string ReusePredictor::SerializeState() const {
  std::string out;
  out.append(kStateMagic, 4);
  // Counters, in declaration order.
  PutVarint64(&out, static_cast<uint64_t>(stats_.base_hits));
  PutVarint64(&out, static_cast<uint64_t>(stats_.dim_hits));
  PutVarint64(&out, static_cast<uint64_t>(stats_.gen_hits));
  PutVarint64(&out, static_cast<uint64_t>(stats_.dim_promotions));
  PutVarint64(&out, static_cast<uint64_t>(stats_.gen_promotions));
  PutVarint64(&out, static_cast<uint64_t>(stats_.dim_rejections));
  PutVarint64(&out, static_cast<uint64_t>(stats_.gen_rejections));
  PutVarint64(&out, static_cast<uint64_t>(stats_.mispredictions));

  PutVarint64(&out, base_sig_.size());
  for (const auto& [key, encoded] : base_sig_) {
    PutLengthPrefixed(&out, key);
    out.append(encoded);
  }

  PutVarint64(&out, dim_sig_.size());
  for (const auto& [key, entry] : dim_sig_) {
    PutLengthPrefixed(&out, key);
    out.push_back(static_cast<char>(entry.state));
    out.append(entry.encoded);
  }

  PutVarint64(&out, gen_sig_.size());
  for (const auto& [key, entry] : gen_sig_) {
    PutLengthPrefixed(&out, key);
    out.push_back(static_cast<char>(entry.state));
    out.append(entry.encoded);
  }
  return out;
}

Status ReusePredictor::RestoreState(std::string_view blob) {
  if (blob.size() < 4 || std::memcmp(blob.data(), kStateMagic, 4) != 0)
    return Status::Corruption("predictor state: bad magic");
  size_t pos = 4;
  ReusePredictor restored;
  int64_t* counters[] = {
      &restored.stats_.base_hits,      &restored.stats_.dim_hits,
      &restored.stats_.gen_hits,       &restored.stats_.dim_promotions,
      &restored.stats_.gen_promotions, &restored.stats_.dim_rejections,
      &restored.stats_.gen_rejections, &restored.stats_.mispredictions};
  for (int64_t* counter : counters) {
    uint64_t v;
    if (!GetVarint64(blob, &pos, &v))
      return Status::Corruption("predictor state: truncated counters");
    *counter = static_cast<int64_t>(v);
  }

  auto get_state = [&](State* out) {
    if (pos >= blob.size()) return false;
    uint8_t raw = static_cast<uint8_t>(blob[pos++]);
    if (raw > static_cast<uint8_t>(State::kRejected)) return false;
    *out = static_cast<State>(raw);
    return true;
  };

  uint64_t num_base;
  if (!GetVarint64(blob, &pos, &num_base))
    return Status::Corruption("predictor state: base count");
  // Every table is decoded (and so validated); an entry keeps the exact
  // bytes it was decoded from as its encoded form.
  for (uint64_t i = 0; i < num_base; ++i) {
    std::string key;
    if (!GetLengthPrefixed(blob, &pos, &key))
      return Status::Corruption("predictor state: base entry");
    const size_t start = pos;
    DSLOG_RETURN_IF_ERROR(GetTables(blob, &pos, nullptr));
    restored.base_sig_[std::move(key)] =
        std::string(blob.substr(start, pos - start));
  }

  uint64_t num_dim;
  if (!GetVarint64(blob, &pos, &num_dim))
    return Status::Corruption("predictor state: dim count");
  for (uint64_t i = 0; i < num_dim; ++i) {
    std::string key;
    DimEntry entry;
    if (!GetLengthPrefixed(blob, &pos, &key) || !get_state(&entry.state))
      return Status::Corruption("predictor state: dim entry");
    const size_t start = pos;
    DSLOG_RETURN_IF_ERROR(GetTables(blob, &pos, &entry.tables));
    entry.encoded = std::string(blob.substr(start, pos - start));
    restored.dim_sig_[std::move(key)] = std::move(entry);
  }

  uint64_t num_gen;
  if (!GetVarint64(blob, &pos, &num_gen))
    return Status::Corruption("predictor state: gen count");
  for (uint64_t i = 0; i < num_gen; ++i) {
    std::string key;
    GenEntry entry;
    uint64_t num_tables;
    if (!GetLengthPrefixed(blob, &pos, &key) || !get_state(&entry.state))
      return Status::Corruption("predictor state: gen entry");
    const size_t start = pos;
    if (!GetVarint64(blob, &pos, &num_tables))
      return Status::Corruption("predictor state: gen entry");
    for (uint64_t t = 0; t < num_tables; ++t) {
      DSLOG_ASSIGN_OR_RETURN(GeneralizedTable table,
                             GeneralizedTable::ParseFrom(blob, &pos));
      entry.tables.push_back(std::move(table));
    }
    uint64_t num_shapes;
    if (!GetVarint64(blob, &pos, &num_shapes))
      return Status::Corruption("predictor state: gen shapes");
    entry.first_shapes.resize(num_shapes);
    for (auto& shape : entry.first_shapes)
      if (!GetShape(blob, &pos, &shape))
        return Status::Corruption("predictor state: gen shape");
    if (!GetShape(blob, &pos, &entry.first_out_shape))
      return Status::Corruption("predictor state: gen out shape");
    entry.encoded = std::string(blob.substr(start, pos - start));
    restored.gen_sig_[std::move(key)] = std::move(entry);
  }

  *this = std::move(restored);
  return Status::OK();
}

std::string ReusePredictor::GenKey(const std::string& op_name,
                                   uint64_t args_hash) {
  std::string key;
  key.reserve(op_name.size() + 21);
  AppendGenKey(&key, op_name, args_hash);
  return key;
}

std::string ReusePredictor::DimKey(
    const std::string& op_name, uint64_t args_hash,
    const std::vector<std::vector<int64_t>>& in_shapes) {
  std::string key;
  key.reserve(op_name.size() + 21 + 21 * in_shapes.size());
  AppendGenKey(&key, op_name, args_hash);
  for (const auto& shape : in_shapes) {
    key.push_back('|');
    for (size_t i = 0; i < shape.size(); ++i) {
      if (i > 0) key.push_back(',');
      AppendDecimal(&key, shape[i]);
    }
  }
  return key;
}

std::string ReusePredictor::BaseKey(const std::string& op_name,
                                    uint64_t args_hash,
                                    uint64_t content_hash) {
  std::string key;
  key.reserve(op_name.size() + 42);
  AppendGenKey(&key, op_name, args_hash);
  key.push_back('#');
  AppendDecimal(&key, content_hash);
  return key;
}

std::vector<CompressedTable> ReusePredictor::Predict(
    const std::string& op_name, const OpArgs& args,
    const std::vector<std::vector<int64_t>>& in_shapes,
    const std::vector<int64_t>& out_shape) const {
  const uint64_t args_hash = args.Hash();
  auto dim_it = dim_sig_.find(DimKey(op_name, args_hash, in_shapes));
  if (dim_it != dim_sig_.end() && dim_it->second.state == State::kPromoted)
    return dim_it->second.tables;

  auto gen_it = gen_sig_.find(GenKey(op_name, args_hash));
  if (gen_it != gen_sig_.end() && gen_it->second.state == State::kPromoted &&
      gen_it->second.tables.size() <= in_shapes.size()) {
    const GenEntry& gen = gen_it->second;
    std::vector<CompressedTable> tables;
    for (size_t i = 0; i < gen.tables.size(); ++i) {
      auto t = gen.tables[i].Instantiate(out_shape, in_shapes[i]);
      if (!t.ok()) return {};
      tables.push_back(std::move(t).ValueOrDie());
    }
    return tables;
  }
  return {};
}

ReuseOutcome ReusePredictor::ProcessRegistration(
    const std::string& op_name, const OpArgs& args,
    const std::vector<std::vector<int64_t>>& in_shapes,
    const std::vector<int64_t>& out_shape, uint64_t content_hash,
    const std::vector<CompressedTable>& tables) {
  ReuseOutcome outcome;
  // One argument hash serves all three keys (it used to be recomputed per
  // key builder; OpArgs::Hash walks every argument).
  const uint64_t args_hash = args.Hash();

  // The tables' encoded section, built at most once for base and dim.
  std::string encoded;
  auto encoded_tables = [&]() -> const std::string& {
    if (encoded.empty()) encoded = EncodeTables(tables);
    return encoded;
  };

  // ---- base_sig: exact input match (Lima-style). -------------------------
  std::string base_key = BaseKey(op_name, args_hash, content_hash);
  auto base_it = base_sig_.find(base_key);
  if (base_it != base_sig_.end()) {
    outcome.base_hit = true;
    ++stats_.base_hits;
  } else {
    base_sig_.emplace(std::move(base_key), encoded_tables());
  }

  // ---- dim_sig: shape-based reuse. ---------------------------------------
  std::string dim_key = DimKey(op_name, args_hash, in_shapes);
  auto [dim_it, dim_new] = dim_sig_.try_emplace(dim_key);
  DimEntry& dim = dim_it->second;
  if (dim_new) {
    dim.tables = tables;
    dim.encoded = encoded_tables();
  } else {
    switch (dim.state) {
      case State::kTentative:
        if (dim.tables == tables) {
          dim.state = State::kPromoted;
          ++stats_.dim_promotions;
          outcome.dim_hit = true;
          ++stats_.dim_hits;
        } else {
          dim.state = State::kRejected;
          ++stats_.dim_rejections;
        }
        break;
      case State::kPromoted:
        if (dim.tables == tables) {
          outcome.dim_hit = true;
          ++stats_.dim_hits;
        } else {
          ++stats_.mispredictions;
          dim.state = State::kRejected;
        }
        break;
      case State::kRejected:
        break;
    }
  }

  // ---- gen_sig: shape-independent reuse via index reshaping. -------------
  std::string gen_key = GenKey(op_name, args_hash);
  auto [gen_it, gen_new] = gen_sig_.try_emplace(gen_key);
  GenEntry& gen = gen_it->second;
  if (gen_new) {
    for (const CompressedTable& t : tables)
      gen.tables.push_back(GeneralizedTable::Generalize(t));
    gen.first_shapes = in_shapes;
    gen.first_out_shape = out_shape;
    gen.encoded = EncodeGen(gen.tables, gen.first_shapes, gen.first_out_shape);
  } else {
    auto verify = [&]() {
      for (size_t i = 0; i < gen.tables.size() && i < tables.size(); ++i) {
        auto inst = gen.tables[i].Instantiate(out_shape, in_shapes[i]);
        if (!inst.ok()) return false;
        if (!(inst.value() == tables[i])) return false;
      }
      return gen.tables.size() == tables.size();
    };
    switch (gen.state) {
      case State::kTentative: {
        // Promotion requires a *different* shape than the first call.
        bool different_shape = in_shapes != gen.first_shapes;
        if (different_shape) {
          if (verify()) {
            gen.state = State::kPromoted;
            ++stats_.gen_promotions;
            outcome.gen_hit = true;
            ++stats_.gen_hits;
          } else {
            gen.state = State::kRejected;
            ++stats_.gen_rejections;
          }
        }
        break;
      }
      case State::kPromoted:
        if (verify()) {
          outcome.gen_hit = true;
          ++stats_.gen_hits;
        } else {
          ++stats_.mispredictions;
          gen.state = State::kRejected;
        }
        break;
      case State::kRejected:
        break;
    }
  }
  return outcome;
}

}  // namespace dslog
