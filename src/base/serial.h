// Byte-oriented, bounds-checked serialization for wire messages and on-disk
// structures. Fixed-width little-endian encoding.
#ifndef SRC_BASE_SERIAL_H_
#define SRC_BASE_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace frangipani {

using Bytes = std::vector<uint8_t>;

class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  // Length-prefixed (u32) blob / string.
  void PutBytes(std::span<const uint8_t> b) {
    PutU32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  // Raw append, no length prefix.
  void PutRaw(const uint8_t* data, size_t n) { buf_.insert(buf_.end(), data, data + n); }

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const Bytes& b) : Decoder(b.data(), b.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // Marks the input malformed (a field decoded but failed validation).
  void Fail() { ok_ = false; }

  uint8_t GetU8() {
    uint8_t v = 0;
    GetLE(&v);
    return v;
  }
  uint16_t GetU16() {
    uint16_t v = 0;
    GetLE(&v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetLE(&v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetLE(&v);
    return v;
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  bool GetBool() { return GetU8() != 0; }

  Bytes GetBytes() {
    uint32_t n = GetU32();
    Bytes out;
    if (!Check(n)) {
      return out;
    }
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  // The same field as GetBytes, without the copy: a view into the decoded
  // buffer, valid only while that buffer lives.
  std::span<const uint8_t> GetBytesView() {
    uint32_t n = GetU32();
    if (!Check(n)) {
      return {};
    }
    std::span<const uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  std::string GetString() {
    uint32_t n = GetU32();
    std::string out;
    if (!Check(n)) {
      return out;
    }
    out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  bool GetRaw(uint8_t* out, size_t n) {
    if (!Check(n)) {
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool Check(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  void GetLE(T* out) {
    if (!Check(sizeof(T))) {
      *out = 0;
      return;
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *out = v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace frangipani

#endif  // SRC_BASE_SERIAL_H_
