//===- presburger/VarTable.cpp - Interned variable identities ------------===//

#include "presburger/VarTable.h"

#include "support/Error.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <charconv>
#include <memory>
#include <optional>
#include <unordered_map>

using namespace omega;

namespace {

/// Chunked stable string storage: names never move once published, so
/// varName() can read without a lock and the intern map can key on
/// string_views into the chunks.
constexpr uint32_t ChunkShift = 10; // 1024 names per chunk.
constexpr uint32_t ChunkSize = 1u << ChunkShift;
constexpr uint32_t MaxChunks = 1u << (31 - ChunkShift);

struct Chunk {
  std::string Names[ChunkSize];
};

/// Constant-initialized, so chunks no name reaches cost no memory.
constinit std::atomic<Chunk *> NameChunks[MaxChunks] = {};

struct Table {
  std::atomic<uint32_t> Count{0};
  Mutex InternMu;
  /// Keys are views into chunk storage (stable for the process lifetime).
  std::unordered_map<std::string_view, uint32_t> Index
      OMEGA_GUARDED_BY(InternMu);

  ~Table() {
    for (uint32_t I = 0; I < Count; I += ChunkSize)
      delete NameChunks[I >> ChunkShift].load(std::memory_order_relaxed);
  }
};

Table &table() {
  static Table T;
  return T;
}

/// Printed wildcard names, "$<n>" at slot n of chunk n >> ChunkShift,
/// formatted a chunk at a time on first read and kept for the process.
/// Constant-initialized, so chunks no wildcard reaches cost no memory.
constinit std::atomic<Chunk *> WildcardChunks[MaxChunks] = {};

/// n for a wildcard name "$<n>" (decimal, no leading zero, n below the
/// invalid id's index); nullopt for every other name.
std::optional<uint32_t> wildcardIndex(std::string_view Name) {
  if (Name.size() < 2 || Name[0] != '$' || (Name[1] == '0' && Name.size() > 2))
    return std::nullopt;
  uint32_t N = 0;
  const char *End = Name.data() + Name.size();
  auto [Stop, Err] = std::from_chars(Name.data() + 1, End, N);
  if (Err != std::errc() || Stop != End || N >= VarId::WildcardBit - 1)
    return std::nullopt;
  return N;
}

/// The printed name of wildcard \p N.  Lock-free: a racing first reader's
/// copy of the chunk loses the exchange and is freed.
const std::string &wildcardName(uint32_t N) {
  std::atomic<Chunk *> &Slot = WildcardChunks[N >> ChunkShift];
  Chunk *C = Slot.load(std::memory_order_acquire);
  if (!C) {
    auto Fresh = std::make_unique<Chunk>();
    const uint32_t Base = N & ~(ChunkSize - 1);
    for (uint32_t I = 0; I < ChunkSize; ++I)
      Fresh->Names[I] = "$" + std::to_string(Base + I);
    if (Slot.compare_exchange_strong(C, Fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      C = Fresh.release();
  }
  return C->Names[N & (ChunkSize - 1)];
}

} // namespace

VarId omega::internVar(std::string_view Name) {
  if (std::optional<uint32_t> N = wildcardIndex(Name))
    return wildcardVar(*N);
  Table &T = table();
  MutexLock Lock(T.InternMu);
  auto It = T.Index.find(Name);
  if (It != T.Index.end())
    return VarId(It->second);
  uint32_t Idx = T.Count.load(std::memory_order_relaxed);
  check(Idx < MaxChunks * ChunkSize, "variable table full");
  Chunk *C = NameChunks[Idx >> ChunkShift].load(std::memory_order_relaxed);
  if (!C) {
    // Chunks are freed only by the table destructor. omegatidy: allow(naked-new)
    C = new Chunk;
    NameChunks[Idx >> ChunkShift].store(C, std::memory_order_release);
  }
  std::string &Slot = C->Names[Idx & (ChunkSize - 1)];
  Slot.assign(Name.data(), Name.size());
  T.Index.emplace(std::string_view(Slot), Idx);
  // Publish: ids handed out below are only dereferenced after this store.
  T.Count.store(Idx + 1, std::memory_order_release);
  return VarId(Idx);
}

VarId omega::lookupVar(std::string_view Name) {
  if (std::optional<uint32_t> N = wildcardIndex(Name))
    return wildcardVar(*N);
  Table &T = table();
  MutexLock Lock(T.InternMu);
  auto It = T.Index.find(Name);
  return It == T.Index.end() ? VarId() : VarId(It->second);
}

const std::string &omega::varName(VarId Id) {
  check(Id.valid(), "varName of invalid VarId");
  if (Id.isWildcard())
    return wildcardName(Id.index());
  Table &T = table();
  uint32_t Idx = Id.index();
  check(Idx < T.Count.load(std::memory_order_acquire),
        "varName of unpublished VarId");
  Chunk *C = NameChunks[Idx >> ChunkShift].load(std::memory_order_acquire);
  return C->Names[Idx & (ChunkSize - 1)];
}

int omega::compareVarNames(VarId L, VarId R) {
  if (L == R)
    return 0;
  return varName(L).compare(varName(R));
}

uint32_t omega::varTableSize() {
  return table().Count.load(std::memory_order_acquire);
}
