#include "src/api/codec_registry.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "src/shard/sharded_codec.h"
#include "src/util/sync.h"

namespace grepair {
namespace api {

namespace internal {
// Defined in builtin_codecs.cc. Called through a hard symbol reference
// (not static initializers alone) so the builtin adapters are linked
// in even from a static library, where the linker drops object files
// nothing refers to.
void RegisterBuiltinCodecs();
}  // namespace internal

namespace {

// Guarded by RegistryMutex(); function-local statics cannot carry
// GUARDED_BY, so every access below pairs FactoryMap() with a
// MutexLock on RegistryMutex() by convention.
std::map<std::string, CodecRegistry::Factory>& FactoryMap() {
  static auto* factories =
      new std::map<std::string, CodecRegistry::Factory>();
  return *factories;
}

Mutex& RegistryMutex() {
  static auto* mutex = new Mutex();
  return *mutex;
}

void EnsureBuiltins() {
  static std::once_flag once;
  std::call_once(once, internal::RegisterBuiltinCodecs);
}

}  // namespace

void CodecRegistry::Register(const std::string& name, Factory factory) {
  MutexLock lock(RegistryMutex());
  FactoryMap()[name] = factory;
}

Result<std::unique_ptr<GraphCodec>> CodecRegistry::Create(
    const std::string& name) {
  EnsureBuiltins();
  Factory factory = nullptr;
  {
    MutexLock lock(RegistryMutex());
    auto it = FactoryMap().find(name);
    if (it != FactoryMap().end()) factory = it->second;
  }
  // "sharded:<inner>" resolves for ANY registered inner codec, not
  // just the pre-registered builtin variants (one level of nesting;
  // a sharded shard would just pay the container tax twice).
  constexpr char kShardedPrefix[] = "sharded:";
  if (factory == nullptr && name.rfind(kShardedPrefix, 0) == 0) {
    std::string inner = name.substr(sizeof(kShardedPrefix) - 1);
    if (inner.rfind(kShardedPrefix, 0) == 0) {
      return Status::InvalidArgument(
          "a sharded inner codec cannot itself be sharded ('" + name + "')");
    }
    auto inner_codec = Create(inner);
    if (!inner_codec.ok()) return inner_codec.status();
    return std::unique_ptr<GraphCodec>(new shard::ShardedCodec(
        inner, std::move(inner_codec).ValueOrDie()));
  }
  if (factory == nullptr) {
    std::string known;
    for (const auto& n : Names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::NotFound("no codec named '" + name + "' (known: " +
                            known + ")");
  }
  return factory();
}

std::vector<std::string> CodecRegistry::Names() {
  EnsureBuiltins();
  MutexLock lock(RegistryMutex());
  std::vector<std::string> names;
  names.reserve(FactoryMap().size());
  for (const auto& [name, factory] : FactoryMap()) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::vector<std::string> CodecRegistry::BaseNames() {
  std::vector<std::string> names;
  for (auto& name : Names()) {
    if (name.rfind("sharded:", 0) != 0) names.push_back(std::move(name));
  }
  return names;
}

}  // namespace api
}  // namespace grepair
