#include "array/ndarray.h"

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"

namespace dslog {

NDArray::NDArray(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  int64_t n = 1;
  for (int64_t d : shape_) {
    DSLOG_CHECK(d >= 0) << "negative extent";
    n *= d;
  }
  data_.assign(static_cast<size_t>(n), 0.0);
  ComputeStrides();
}

void NDArray::ComputeStrides() {
  strides_.assign(shape_.size(), 1);
  for (int i = static_cast<int>(shape_.size()) - 2; i >= 0; --i)
    strides_[static_cast<size_t>(i)] =
        strides_[static_cast<size_t>(i) + 1] * shape_[static_cast<size_t>(i) + 1];
}

NDArray NDArray::Full(std::vector<int64_t> shape, double value) {
  NDArray a(std::move(shape));
  for (auto& v : a.data_) v = value;
  return a;
}

NDArray NDArray::FromValues(std::vector<int64_t> shape, std::vector<double> values) {
  NDArray a;
  a.shape_ = std::move(shape);
  int64_t n = 1;
  for (int64_t d : a.shape_) n *= d;
  DSLOG_CHECK(n == static_cast<int64_t>(values.size()))
      << "shape/value size mismatch: " << n << " vs " << values.size();
  a.data_ = std::move(values);
  a.ComputeStrides();
  return a;
}

NDArray NDArray::Random(std::vector<int64_t> shape, Rng* rng) {
  NDArray a(std::move(shape));
  for (auto& v : a.data_) v = rng->NextDouble();
  return a;
}

NDArray NDArray::RandomInts(std::vector<int64_t> shape, int64_t lo, int64_t hi,
                            Rng* rng) {
  NDArray a(std::move(shape));
  for (auto& v : a.data_) v = static_cast<double>(rng->UniformRange(lo, hi));
  return a;
}

NDArray NDArray::Arange(int64_t n) {
  NDArray a({n});
  for (int64_t i = 0; i < n; ++i) a.data_[static_cast<size_t>(i)] = static_cast<double>(i);
  return a;
}

int64_t NDArray::FlatIndex(std::span<const int64_t> idx) const {
  DSLOG_DCHECK(idx.size() == shape_.size());
  int64_t flat = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    DSLOG_DCHECK(idx[i] >= 0 && idx[i] < shape_[i]);
    flat += idx[i] * strides_[i];
  }
  return flat;
}

void NDArray::UnravelIndex(int64_t flat, std::span<int64_t> idx) const {
  DSLOG_DCHECK(idx.size() == shape_.size());
  for (size_t i = 0; i < shape_.size(); ++i) {
    idx[i] = flat / strides_[i];
    flat %= strides_[i];
  }
}

uint64_t NDArray::ContentHash() const {
  uint64_t h = Hash64(shape_.data(), shape_.size() * sizeof(int64_t));
  h = HashCombine(h, Hash64(data_.data(), data_.size() * sizeof(double)));
  return h;
}

std::string NDArray::ShapeToString() const {
  return std::string("(").append(JoinInts(shape_, ",")).append(")");
}

}  // namespace dslog
