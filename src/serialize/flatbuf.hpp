// FlatBuffers-compatible codec, built from scratch, plus Neutrino's
// "Optimized FlatBuffers" (§4.4).
//
// Faithful wire-format mechanics:
//   * buffer built back-to-front; root uoffset32 at the front
//   * tables: leading soffset32 to a vtable; scalars inline; strings,
//     vectors, sub-tables and unions referenced by forward uoffset32
//   * vtables: [u16 vtable_bytes][u16 table_bytes][u16 slot...]; deduplicated
//   * scalars aligned to their size; buffer end-padded so alignment holds
//
// Standard-mode unions follow flatc semantics: a scalar or string union
// member must be wrapped in a synthetic single-field table, costing a
// 6-byte vtable + 4-byte soffset (scalar) or +4-byte uoffset (string).
// Optimized mode implements the paper's svtable type: the union value slot
// points directly at the bare scalar / string, saving exactly the 10 / 14
// bytes the paper reports, and skipping one indirection on decode.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serialize/schema.hpp"
#include "serialize/wire.hpp"

namespace neutrino::ser {

enum class FlatBufMode {
  kStandard,
  kOptimized,  // svtable single-field unions
};

namespace fb_detail {

/// Padding that brings `n` up to a multiple of `alignment`. Alignments are
/// scalar sizes (1, 2, 4 or 8), so this is a mask, not a division.
constexpr std::size_t pad_to(std::size_t n, std::size_t alignment) {
  assert(std::has_single_bit(alignment));
  return (0 - n) & (alignment - 1);
}

// Offset-from-buffer-end coordinates ("eoff"): the first byte pushed has the
// largest position, so uoffset = pos_target - pos_field = eoff_field -
// eoff_target, matching the standard forward-uoffset semantics.
class BackwardBuffer {
 public:
  BackwardBuffer() : buf_(kInitialCapacity), head_(kInitialCapacity) {}

  /// Drop the contents and keep the capacity. Stale bytes below the head
  /// are never read: every byte of an encode is written before it is used.
  void clear() {
    head_ = buf_.size();
    minalign_ = 1;
  }

  [[nodiscard]] std::size_t written() const { return buf_.size() - head_; }

  /// Out of line on purpose: inlined into end_table, GCC expands this
  /// variable-length memcpy into `rep movsq`, whose start-up cost is many
  /// times that of a libc call for the few dozen bytes of a vtable.
  [[gnu::noinline]] void push_bytes(const void* data, std::size_t n) {
    if (n == 0) return;  // empty payloads may carry a null pointer (UB to memcpy)
    make_room(n);
    head_ -= n;
    std::memcpy(buf_.data() + head_, data, n);
  }

  void push_zeros(std::size_t n) {
    make_room(n);
    head_ -= n;
    std::memset(buf_.data() + head_, 0, n);
  }

  /// One fixed-width store (host order; we only target little-endian).
  template <typename T>
  void push_scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    make_room(sizeof(T));
    head_ -= sizeof(T);
    std::memcpy(buf_.data() + head_, &v, sizeof(T));
  }

  /// Pad so that after pushing `len` more bytes the write head sits at an
  /// eoff multiple of `alignment`.
  void pre_align(std::size_t len, std::size_t alignment) {
    minalign_ = std::max(minalign_, alignment);
    const std::size_t pad = pad_to(written() + len, alignment);
    if (pad != 0) push_pad(pad);
  }

  [[nodiscard]] std::size_t minalign() const { return minalign_; }

  /// Mutable view of `n` bytes just pushed, starting at the given eoff.
  [[nodiscard]] Byte* data_at(std::size_t eoff) {
    return buf_.data() + (buf_.size() - eoff);
  }
  [[nodiscard]] const Byte* data_at(std::size_t eoff) const {
    return buf_.data() + (buf_.size() - eoff);
  }

  /// The finished buffer, copied out; the builder keeps its storage.
  Bytes finish() {
    // Pad the total size to minalign so pos = N - eoff keeps every
    // eoff-aligned item position-aligned as well.
    const std::size_t pad = pad_to(written(), minalign_);
    if (pad != 0) push_pad(pad);
    return Bytes(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                 buf_.end());
  }

 private:
  static constexpr std::size_t kInitialCapacity = 512;

  /// Alignment padding (under 8 bytes, since alignments are scalar sizes)
  /// as one 8-byte store of zeros ending at the head: the bytes it writes
  /// below the new head are overwritten before anything reads them.
  void push_pad(std::size_t n) {
    assert(n < 8);
    make_room(8);
    std::memset(buf_.data() + head_ - 8, 0, 8);
    head_ -= n;
  }

  void make_room(std::size_t n) {
    if (head_ >= n) [[likely]] return;
    grow(n);
  }

  [[gnu::noinline]] void grow(std::size_t n) {
    const std::size_t old_size = buf_.size();
    const std::size_t grow = std::max(old_size, n);
    Bytes bigger(old_size + grow);
    std::memcpy(bigger.data() + head_ + grow, buf_.data() + head_,
                old_size - head_);
    buf_ = std::move(bigger);
    head_ += grow;
  }

  Bytes buf_;
  std::size_t head_;
  std::size_t minalign_ = 1;
};

/// A stack of trivially copyable values that keeps its capacity across
/// clear(), for the builder's scratch: push() is an inlined capacity check
/// and a store, and growth stays out of line.
template <typename T>
class ScratchStack {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  [[gnu::always_inline]] void push(const T& v) {
    if (size_ == capacity_) [[unlikely]] grow();
    data_[size_++] = v;
  }
  [[nodiscard]] T* data() { return data_.get(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  /// Pop everything above the first `n` entries.
  void truncate(std::size_t n) { size_ = n; }
  void clear() { size_ = 0; }

 private:
  [[gnu::noinline]] void grow() {
    const std::size_t capacity = capacity_ == 0 ? 64 : 2 * capacity_;
    auto bigger = std::make_unique_for_overwrite<T[]>(capacity);
    if (size_ != 0) std::memcpy(bigger.get(), data_.get(), size_ * sizeof(T));
    data_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// A field pending placement in the current table.
struct PendingField {
  std::uint16_t slot = 0;             // vtable slot index
  std::uint8_t size = 0;              // inline size in bytes
  std::uint8_t align = 1;             // inline alignment
  bool is_ref = false;                // true: `ref_eoff` target, else raw value
  std::uint16_t inline_off = 0;       // assigned at table layout time
  std::uint64_t scalar_bits = 0;      // raw little-endian scalar payload
  std::uint32_t ref_eoff = 0;         // eoff of referenced child
};

}  // namespace fb_detail

class FlatBufEncoder {
 public:
  template <FieldStruct M>
  static Bytes encode(const M& msg, FlatBufMode mode) {
    FlatBufEncoder& enc = thread_builder();
    enc.reset(mode);
    const std::uint32_t root = enc.encode_table(const_cast<M&>(msg));
    // Align so the root uoffset lands at position 0 of the final buffer
    // with no front padding needed afterwards (pos = N - eoff stays valid).
    enc.buf_.pre_align(4, std::max<std::size_t>(4, enc.buf_.minalign()));
    enc.buf_.push_scalar<std::uint32_t>(
        static_cast<std::uint32_t>(enc.buf_.written() + 4 - root));
    return enc.buf_.finish();
  }

  // Visitor entry point.
  template <typename T>
  void field(int /*id*/, std::string_view /*name*/, T& value,
             IntBounds /*bounds*/ = {}) {
    if constexpr (ScalarField<T> || std::is_same_v<T, bool>) {
      add_scalar(next_slot_++, value);
    } else if constexpr (StringField<T> || BytesField<T>) {
      add_ref(next_slot_++, encode_string_like(value));
    } else if constexpr (is_optional<T>::value) {
      const std::uint16_t slot = next_slot_++;
      if (value.has_value()) encode_optional_payload(slot, *value);
    } else if constexpr (is_tagged_union<T>::value) {
      encode_union(value);
    } else if constexpr (is_std_vector<T>::value) {
      add_ref(next_slot_++, encode_vector(value));
    } else {
      static_assert(FieldStruct<T>, "unsupported field type");
      add_ref(next_slot_++, encode_table(value));
    }
  }

 private:
  FlatBufEncoder() = default;

  /// This thread's builder. As with FlatBufferBuilder::Clear(), reset()
  /// keeps the capacity of the buffer and the scratch stacks, so once they
  /// have grown to fit the largest message seen, an encode allocates only
  /// the Bytes it returns.
  static FlatBufEncoder& thread_builder() {
    static thread_local FlatBufEncoder builder;
    return builder;
  }

  void reset(FlatBufMode mode) {
    buf_.clear();
    fields_.clear();
    child_eoffs_.clear();
    written_vtables_.clear();
    next_slot_ = 0;
    mode_ = mode;
  }

  template <typename T>
  void encode_optional_payload(std::uint16_t slot, T& inner) {
    if constexpr (ScalarField<T> || std::is_same_v<T, bool>) {
      add_scalar(slot, inner);
    } else if constexpr (StringField<T> || BytesField<T>) {
      add_ref(slot, encode_string_like(inner));
    } else if constexpr (is_std_vector<T>::value) {
      add_ref(slot, encode_vector(inner));
    } else {
      static_assert(FieldStruct<T>, "unsupported optional payload");
      add_ref(slot, encode_table(inner));
    }
  }

  template <typename T>
  void add_scalar(std::uint16_t slot, T value) {
    fb_detail::PendingField f;
    f.slot = slot;
    f.size = static_cast<std::uint8_t>(
        std::is_same_v<T, bool> ? 1 : sizeof(T));
    f.align = f.size;
    std::uint64_t bits = 0;
    if constexpr (std::is_same_v<T, bool>) {
      bits = value ? 1 : 0;
    } else {
      std::memcpy(&bits, &value, sizeof(T));
    }
    f.scalar_bits = bits;
    fields_.push(f);
  }

  void add_ref(std::uint16_t slot, std::uint32_t target_eoff) {
    fb_detail::PendingField f;
    f.slot = slot;
    f.size = 4;
    f.align = 4;
    f.is_ref = true;
    f.ref_eoff = target_eoff;
    fields_.push(f);
  }

  template <typename S>
  std::uint32_t encode_string_like(const S& s) {
    // Alignment padding must precede the payload in a back-to-front
    // builder, or it would land between the length field and the data.
    buf_.pre_align(s.size() + 1 + 4, 4);
    buf_.push_zeros(1);  // NUL terminator
    buf_.push_bytes(s.data(), s.size());
    buf_.push_scalar<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    return static_cast<std::uint32_t>(buf_.written());
  }

  template <typename T>
  std::uint32_t encode_vector(std::vector<T>& vec) {
    // Pad before the elements so the 4-byte count can sit immediately
    // below them; aligning element 0 to its size also 4-aligns the count.
    if constexpr (ScalarField<T>) {
      buf_.pre_align(vec.size() * sizeof(T),
                     std::max<std::size_t>(4, sizeof(T)));
      for (std::size_t i = vec.size(); i-- > 0;) buf_.push_scalar<T>(vec[i]);
    } else {
      static_assert(FieldStruct<T>, "unsupported vector element");
      // The children's eoffs go on a stack shared by nested vectors; each
      // vector pops its own entries before returning.
      const std::size_t base = child_eoffs_.size();
      for (T& child : vec) {
        const std::uint32_t eoff = encode_table(child);
        child_eoffs_.push(eoff);
      }
      buf_.pre_align(vec.size() * 4, 4);
      for (std::size_t i = vec.size(); i-- > 0;) {
        const auto slot_eoff =
            static_cast<std::uint32_t>(buf_.written() + 4);
        buf_.push_scalar<std::uint32_t>(slot_eoff - child_eoffs_[base + i]);
      }
      child_eoffs_.truncate(base);
    }
    buf_.push_scalar<std::uint32_t>(static_cast<std::uint32_t>(vec.size()));
    return static_cast<std::uint32_t>(buf_.written());
  }

  template <typename U>
  void encode_union(U& u) {
    const std::uint16_t type_slot = next_slot_++;
    const std::uint16_t value_slot = next_slot_++;
    if (!u.has_value()) return;
    add_scalar(type_slot,
               static_cast<std::uint8_t>(u.index() + 1));  // 0 = NONE
    std::uint32_t target = 0;
    u.visit_active([&](auto& alt) {
      using Alt = std::decay_t<decltype(alt)>;
      if constexpr (FieldStruct<Alt>) {
        target = encode_table(alt);
      } else if (mode_ == FlatBufMode::kOptimized) {
        // svtable: point straight at the bare value.
        if constexpr (StringField<Alt> || BytesField<Alt>) {
          target = encode_string_like(alt);
        } else {
          buf_.pre_align(sizeof(Alt), sizeof(Alt));
          buf_.push_scalar<Alt>(alt);
          target = static_cast<std::uint32_t>(buf_.written());
        }
      } else {
        // Standard flatc: wrap the single value in a synthetic table.
        target = encode_wrapper_table(alt);
      }
    });
    add_ref(value_slot, target);
  }

  template <typename Alt>
  std::uint32_t encode_wrapper_table(Alt& alt) {
    const Frame frame = push_frame();
    if constexpr (StringField<Alt> || BytesField<Alt>) {
      add_ref(0, encode_string_like(alt));
    } else {
      add_scalar(0, alt);
    }
    return end_table(frame, "union wrapper");
  }

  template <FieldStruct M>
  std::uint32_t encode_table(M& msg) {
    const Frame frame = push_frame();
    msg.visit_fields([this](auto&&... args) { this->field(args...); });
    return end_table(frame, M::kTypeName);
  }

  /// Nested tables share one pending-field stack with frame bases instead
  /// of a vector per table. Only MeasuredCostModel's start-up timing and
  /// the codec benches call the builder; the simulator reads its costs.
  struct Frame {
    std::size_t base;
    std::uint16_t saved_slot;
  };

  Frame push_frame() {
    const Frame frame{fields_.size(), next_slot_};
    next_slot_ = 0;
    return frame;
  }

  std::uint32_t end_table(Frame frame, std::string_view type_name) {
    const std::span<fb_detail::PendingField> fields(
        fields_.data() + frame.base, fields_.size() - frame.base);

    // Fields arrive in slot order (a table's visitor hands out slots in
    // declaration order), so the last one fixes the vtable's width.
    assert(std::is_sorted(fields.begin(), fields.end(),
                          [](const auto& a, const auto& b) {
                            return a.slot < b.slot;
                          }));
    const std::size_t slot_count =
        fields.empty() ? 0 : std::size_t{fields.back().slot} + 1;
    if (slot_count > kMaxSlots) [[unlikely]] too_wide(type_name, slot_count);
    const auto vtable_bytes = static_cast<std::uint16_t>(4 + 2 * slot_count);
    Byte vt[4 + 2 * kMaxSlots];  // only the first vtable_bytes are used

    // Layout the inline area: 4-byte soffset, then fields in declaration
    // order, each aligned. The vtable records the resulting byte offsets
    // and 0 for each slot without a field.
    std::uint32_t cursor = 4;
    std::uint32_t max_align = 4;
    std::uint16_t slot = 0;
    for (auto& f : fields) {
      for (; slot < f.slot; ++slot) store_u16(vt + 4 + 2u * slot, 0);
      cursor = align_up(cursor, f.align);
      f.inline_off = static_cast<std::uint16_t>(cursor);
      store_u16(vt + 4 + 2u * f.slot, f.inline_off);
      slot = static_cast<std::uint16_t>(f.slot + 1);
      cursor += f.size;
      max_align = std::max<std::uint32_t>(max_align, f.align);
    }
    const std::uint32_t table_size = align_up(cursor, 4);
    // The 4-byte header (vtable size, table size), built and stored as one
    // word: four byte stores read back as a word would stall the load.
    const std::uint32_t header = vtable_bytes | table_size << 16;
    std::memcpy(vt, &header, 4);

    // Deduplicate the vtable the way the real FlatBufferBuilder does:
    // memcmp against the vtables already written into the buffer (few
    // unique shapes per message). The header rules out most candidates
    // first; a candidate whose header matches has this vtable's size, so
    // the compare stays in bounds.
    std::uint32_t vt_eoff = 0;
    for (const std::uint32_t candidate : written_vtables_) {
      const Byte* written = buf_.data_at(candidate);
      std::uint32_t candidate_header = 0;
      std::memcpy(&candidate_header, written, 4);
      if (candidate_header == header &&
          std::memcmp(written + 4, vt + 4, vtable_bytes - 4u) == 0) {
        vt_eoff = candidate;
        break;
      }
    }
    if (vt_eoff == 0) {
      buf_.pre_align(vtable_bytes, 2);
      buf_.push_bytes(vt, vtable_bytes);
      vt_eoff = static_cast<std::uint32_t>(buf_.written());
      written_vtables_.push_back(vt_eoff);
    }

    // Emit the table inline area directly into the buffer.
    buf_.pre_align(table_size, max_align);
    buf_.push_zeros(table_size);
    const auto table_eoff = static_cast<std::uint32_t>(buf_.written());
    Byte* area = buf_.data_at(table_eoff);
    const std::int32_t soffset = static_cast<std::int32_t>(vt_eoff) -
                                 static_cast<std::int32_t>(table_eoff);
    std::memcpy(area, &soffset, 4);
    for (const auto& f : fields) {
      if (f.is_ref) {
        const std::uint32_t field_eoff = table_eoff - f.inline_off;
        const std::uint32_t uoffset = field_eoff - f.ref_eoff;
        std::memcpy(area + f.inline_off, &uoffset, 4);
      } else {
        store_scalar(area + f.inline_off, f.scalar_bits, f.size);
      }
    }

    fields_.truncate(frame.base);
    next_slot_ = frame.saved_slot;
    return table_eoff;
  }

  static constexpr std::size_t kMaxSlots = 72;  // >= widest message (2/union)

  /// A table wider than the vtable scratch: abort in every build, naming
  /// the type, before anything is written.
  [[gnu::cold, gnu::noinline]] [[noreturn]] static void too_wide(
      std::string_view type_name, std::size_t slots) {
    std::fprintf(stderr,
                 "FlatBufEncoder: table %.*s has %zu slots; the builder "
                 "holds at most %zu\n",
                 static_cast<int>(type_name.size()), type_name.data(), slots,
                 kMaxSlots);
    std::abort();
  }

  /// The low `size` bytes of a pending scalar, as one fixed-width store.
  static void store_scalar(Byte* dst, std::uint64_t bits, std::size_t size) {
    switch (size) {
      case 1:
        *dst = static_cast<Byte>(bits);
        break;
      case 2: {
        const auto v = static_cast<std::uint16_t>(bits);
        std::memcpy(dst, &v, 2);
        break;
      }
      case 4: {
        const auto v = static_cast<std::uint32_t>(bits);
        std::memcpy(dst, &v, 4);
        break;
      }
      default:
        assert(size == 8);
        std::memcpy(dst, &bits, 8);
        break;
    }
  }

  static constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t a) {
    return v + static_cast<std::uint32_t>(fb_detail::pad_to(v, a));
  }
  /// One 2-byte store (host order; we only target little-endian).
  static void store_u16(Byte* dst, std::uint16_t v) { std::memcpy(dst, &v, 2); }

  fb_detail::BackwardBuffer buf_;
  fb_detail::ScratchStack<fb_detail::PendingField> fields_;
  fb_detail::ScratchStack<std::uint32_t> child_eoffs_;
  std::uint16_t next_slot_ = 0;
  FlatBufMode mode_ = FlatBufMode::kStandard;
  std::vector<std::uint32_t> written_vtables_;
};

/// Random-access view of one encoded table (the flatc accessor model:
/// every read is a vtable slot lookup plus a direct load, no parse pass).
class FlatTableRef {
 public:
  FlatTableRef(BytesView buf, std::uint32_t pos) : buf_(buf), pos_(pos) {}

  static Result<FlatTableRef> root(BytesView buf) {
    if (buf.size() < 4) {
      return make_error(StatusCode::kMalformed, "flatbuffer too small");
    }
    const std::uint32_t uoffset = read_scalar<std::uint32_t>(buf, 0);
    if (uoffset >= buf.size()) {
      return make_error(StatusCode::kMalformed, "bad root offset");
    }
    return FlatTableRef(buf, uoffset);
  }

  /// Byte position of a field, or 0 when absent.
  [[nodiscard]] std::uint32_t field_pos(std::uint16_t slot) const {
    const auto soffset = read_scalar<std::int32_t>(buf_, pos_);
    const auto vt_pos =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(pos_) - soffset);
    const std::uint16_t vt_bytes = read_scalar<std::uint16_t>(buf_, vt_pos);
    const std::uint16_t slot_count =
        static_cast<std::uint16_t>((vt_bytes - 4) / 2);
    if (slot >= slot_count) return 0;
    const std::uint16_t off =
        read_scalar<std::uint16_t>(buf_, vt_pos + 4 + 2u * slot);
    return off == 0 ? 0 : pos_ + off;
  }

  template <typename T>
  [[nodiscard]] T scalar(std::uint16_t slot, T default_value = T{}) const {
    const std::uint32_t p = field_pos(slot);
    if (p == 0) return default_value;
    if constexpr (std::is_same_v<T, bool>) {
      return buf_[p] != 0;
    } else {
      return read_scalar<T>(buf_, p);
    }
  }

  [[nodiscard]] bool has_field(std::uint16_t slot) const {
    return field_pos(slot) != 0;
  }

  [[nodiscard]] std::uint32_t indirect(std::uint32_t field_position) const {
    return field_position + read_scalar<std::uint32_t>(buf_, field_position);
  }

  [[nodiscard]] std::string_view string_at(std::uint32_t string_pos) const {
    const auto len = read_scalar<std::uint32_t>(buf_, string_pos);
    return {reinterpret_cast<const char*>(buf_.data()) + string_pos + 4, len};
  }

  [[nodiscard]] FlatTableRef table_at(std::uint32_t table_pos) const {
    return FlatTableRef(buf_, table_pos);
  }

  [[nodiscard]] BytesView buffer() const { return buf_; }

  template <typename T>
  static T read_scalar(BytesView buf, std::uint32_t pos) {
    T v;
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    return v;
  }

 private:
  BytesView buf_;
  std::uint32_t pos_;
};

/// Accessor-style consumption of an encoded buffer: visit every field *in
/// place* — vtable lookup + direct load, string/vector payloads read as
/// views — without materializing a C++ struct. This is how FlatBuffers is
/// actually used (flatc generates accessors, not parsers), and it is what
/// the paper's decode measurements compare against sequential formats that
/// must parse-and-allocate. Returns a checksum so the compiler cannot
/// discard the reads.
class FlatBufAccessor {
 public:
  template <FieldStruct M>
  static Result<std::uint64_t> access_all(BytesView data, FlatBufMode mode) {
    auto root = FlatTableRef::root(data);
    if (!root) return root.status();
    FlatBufAccessor acc(mode);
    static thread_local M schema_probe{};  // drives the field walk; not read
    acc.walk_table(*root, schema_probe);
    return acc.checksum_;
  }

 private:
  explicit FlatBufAccessor(FlatBufMode mode) : mode_(mode) {}

  template <FieldStruct M>
  void walk_table(const FlatTableRef& table, M& probe) {
    std::uint16_t slot = 0;
    probe.visit_fields([&](int /*id*/, std::string_view /*name*/,
                           auto& member, IntBounds /*bounds*/ = {}) {
      this->walk_field(table, slot, member);
    });
  }

  void consume(std::string_view payload) {
    std::uint64_t sum = 0;
    for (const char c : payload) sum += static_cast<unsigned char>(c);
    checksum_ += sum + payload.size();
  }

  template <typename T>
  void walk_field(const FlatTableRef& table, std::uint16_t& slot, T& probe) {
    if constexpr (ScalarField<T> || std::is_same_v<T, bool>) {
      checksum_ += static_cast<std::uint64_t>(table.scalar<T>(slot++));
    } else if constexpr (StringField<T> || BytesField<T>) {
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) consume(table.string_at(table.indirect(p)));
    } else if constexpr (is_optional<T>::value) {
      using Inner = typename T::value_type;
      const std::uint16_t my_slot = slot++;
      const std::uint32_t p = table.field_pos(my_slot);
      if (p == 0) return;
      if constexpr (ScalarField<Inner> || std::is_same_v<Inner, bool>) {
        checksum_ += static_cast<std::uint64_t>(table.scalar<Inner>(my_slot));
      } else if constexpr (StringField<Inner> || BytesField<Inner>) {
        consume(table.string_at(table.indirect(p)));
      } else if constexpr (is_std_vector<Inner>::value) {
        static thread_local Inner vec_probe{};
        walk_vector_at(table, table.indirect(p), vec_probe);
      } else {
        static thread_local Inner probe_inner{};
        walk_table(table.table_at(table.indirect(p)), probe_inner);
      }
    } else if constexpr (is_tagged_union<T>::value) {
      walk_union(table, slot, probe);
    } else if constexpr (is_std_vector<T>::value) {
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) walk_vector_at(table, table.indirect(p), probe);
    } else {
      static_assert(FieldStruct<T>, "unsupported field type");
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) walk_table(table.table_at(table.indirect(p)), probe);
    }
  }

  template <typename U>
  void walk_union(const FlatTableRef& table, std::uint16_t& slot, U& probe) {
    const std::uint16_t type_slot = slot++;
    const std::uint16_t value_slot = slot++;
    const auto type = table.scalar<std::uint8_t>(type_slot);
    if (type == 0) return;
    const std::uint32_t p = table.field_pos(value_slot);
    if (p == 0) return;
    const std::uint32_t target = table.indirect(p);
    probe.emplace_by_index(type - 1, [&](auto& alt) {
      using Alt = std::decay_t<decltype(alt)>;
      if constexpr (FieldStruct<Alt>) {
        walk_table(table.table_at(target), alt);
      } else if (mode_ == FlatBufMode::kOptimized) {
        if constexpr (StringField<Alt> || BytesField<Alt>) {
          consume(table.string_at(target));
        } else {
          checksum_ += static_cast<std::uint64_t>(
              FlatTableRef::read_scalar<Alt>(table.buffer(), target));
        }
      } else {
        const FlatTableRef wrapper = table.table_at(target);
        if constexpr (StringField<Alt> || BytesField<Alt>) {
          const std::uint32_t wp = wrapper.field_pos(0);
          if (wp != 0) consume(wrapper.string_at(wrapper.indirect(wp)));
        } else {
          checksum_ += static_cast<std::uint64_t>(wrapper.scalar<Alt>(0));
        }
      }
    });
  }

  template <typename Vec>
  void walk_vector_at(const FlatTableRef& table, std::uint32_t vec_pos,
                      Vec& /*probe*/) {
    using Element = typename Vec::value_type;
    const auto count =
        FlatTableRef::read_scalar<std::uint32_t>(table.buffer(), vec_pos);
    for (std::uint32_t i = 0; i < count; ++i) {
      if constexpr (ScalarField<Element>) {
        checksum_ += static_cast<std::uint64_t>(
            FlatTableRef::read_scalar<Element>(
                table.buffer(),
                vec_pos + 4 +
                    i * static_cast<std::uint32_t>(sizeof(Element))));
      } else {
        static_assert(FieldStruct<Element>, "unsupported vector element");
        static thread_local Element element_probe{};
        const std::uint32_t slot_pos = vec_pos + 4 + i * 4;
        walk_table(table.table_at(table.indirect(slot_pos)), element_probe);
      }
    }
  }

  std::uint64_t checksum_ = 0;
  FlatBufMode mode_;
};

class FlatBufDecoder {
 public:
  template <FieldStruct M>
  static Result<M> decode(BytesView data, FlatBufMode mode) {
    auto root = FlatTableRef::root(data);
    if (!root) return root.status();
    M msg{};
    FlatBufDecoder dec(mode);
    dec.decode_table(*root, msg);
    if (!dec.status_.is_ok()) return dec.status_;
    return msg;
  }

 private:
  explicit FlatBufDecoder(FlatBufMode mode) : mode_(mode) {}

  template <FieldStruct M>
  void decode_table(const FlatTableRef& table, M& msg) {
    std::uint16_t slot = 0;
    msg.visit_fields([&](int /*id*/, std::string_view /*name*/, auto& value,
                         IntBounds /*bounds*/ = {}) {
      this->decode_field(table, slot, value);
    });
  }

  template <typename T>
  void decode_field(const FlatTableRef& table, std::uint16_t& slot, T& value) {
    if (!status_.is_ok()) return;
    if constexpr (ScalarField<T> || std::is_same_v<T, bool>) {
      value = table.scalar<T>(slot++);
    } else if constexpr (StringField<T>) {
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) value = std::string(table.string_at(table.indirect(p)));
    } else if constexpr (BytesField<T>) {
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) {
        const auto sv = table.string_at(table.indirect(p));
        value.assign(sv.begin(), sv.end());
      }
    } else if constexpr (is_optional<T>::value) {
      decode_optional(table, slot, value);
    } else if constexpr (is_tagged_union<T>::value) {
      decode_union(table, slot, value);
    } else if constexpr (is_std_vector<T>::value) {
      decode_vector(table, slot, value);
    } else {
      static_assert(FieldStruct<T>, "unsupported field type");
      const std::uint32_t p = table.field_pos(slot++);
      if (p != 0) decode_table(table.table_at(table.indirect(p)), value);
    }
  }

  template <typename Opt>
  void decode_optional(const FlatTableRef& table, std::uint16_t& slot,
                       Opt& value) {
    using Inner = typename Opt::value_type;
    const std::uint16_t my_slot = slot++;
    const std::uint32_t p = table.field_pos(my_slot);
    if (p == 0) {
      value.reset();
      return;
    }
    if constexpr (ScalarField<Inner> || std::is_same_v<Inner, bool>) {
      value = table.scalar<Inner>(my_slot);
    } else if constexpr (StringField<Inner>) {
      value = std::string(table.string_at(table.indirect(p)));
    } else if constexpr (BytesField<Inner>) {
      const auto sv = table.string_at(table.indirect(p));
      value.emplace(sv.begin(), sv.end());
    } else if constexpr (is_std_vector<Inner>::value) {
      decode_vector_at(table, table.indirect(p), value.emplace());
    } else {
      static_assert(FieldStruct<Inner>, "unsupported optional payload");
      decode_table(table.table_at(table.indirect(p)), value.emplace());
    }
  }

  template <typename U>
  void decode_union(const FlatTableRef& table, std::uint16_t& slot, U& u) {
    const std::uint16_t type_slot = slot++;
    const std::uint16_t value_slot = slot++;
    const auto type = table.scalar<std::uint8_t>(type_slot);
    if (type == 0) return;  // NONE
    const std::uint32_t p = table.field_pos(value_slot);
    if (p == 0) {
      status_ = make_error(StatusCode::kMalformed, "union type without value");
      return;
    }
    const std::uint32_t target = table.indirect(p);
    const bool ok = u.emplace_by_index(type - 1, [&](auto& alt) {
      using Alt = std::decay_t<decltype(alt)>;
      if constexpr (FieldStruct<Alt>) {
        decode_table(table.table_at(target), alt);
      } else if (mode_ == FlatBufMode::kOptimized) {
        if constexpr (StringField<Alt>) {
          alt = std::string(table.string_at(target));
        } else if constexpr (BytesField<Alt>) {
          const auto sv = table.string_at(target);
          alt.assign(sv.begin(), sv.end());
        } else {
          alt = FlatTableRef::read_scalar<Alt>(table.buffer(), target);
        }
      } else {
        // Standard mode: unwrap the synthetic single-field table.
        const FlatTableRef wrapper = table.table_at(target);
        if constexpr (StringField<Alt>) {
          const std::uint32_t wp = wrapper.field_pos(0);
          if (wp != 0) alt = std::string(wrapper.string_at(wrapper.indirect(wp)));
        } else if constexpr (BytesField<Alt>) {
          const std::uint32_t wp = wrapper.field_pos(0);
          if (wp != 0) {
            const auto sv = wrapper.string_at(wrapper.indirect(wp));
            alt.assign(sv.begin(), sv.end());
          }
        } else {
          alt = wrapper.scalar<Alt>(0);
        }
      }
    });
    if (!ok) {
      status_ = make_error(StatusCode::kMalformed, "bad union type");
    }
  }

  template <typename Vec>
  void decode_vector(const FlatTableRef& table, std::uint16_t& slot,
                     Vec& value) {
    const std::uint32_t p = table.field_pos(slot++);
    value.clear();
    if (p == 0) return;
    decode_vector_at(table, table.indirect(p), value);
  }

  template <typename Vec>
  void decode_vector_at(const FlatTableRef& table, std::uint32_t vec_pos,
                        Vec& value) {
    using Element = typename Vec::value_type;
    const auto count =
        FlatTableRef::read_scalar<std::uint32_t>(table.buffer(), vec_pos);
    value.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      if constexpr (ScalarField<Element>) {
        value.push_back(FlatTableRef::read_scalar<Element>(
            table.buffer(),
            vec_pos + 4 + i * static_cast<std::uint32_t>(sizeof(Element))));
      } else {
        static_assert(FieldStruct<Element>, "unsupported vector element");
        const std::uint32_t slot_pos = vec_pos + 4 + i * 4;
        decode_table(table.table_at(table.indirect(slot_pos)),
                     value.emplace_back());
      }
    }
  }

  Status status_;
  FlatBufMode mode_;
};

}  // namespace neutrino::ser
