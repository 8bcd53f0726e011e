// Component readiness and status sections for the live introspection plane
// (obs::ObsServer's /healthz and /statusz endpoints). Long-lived components
// — the analysis pipeline and the collector — publish a ready bit plus a
// detail string into the process-global Health registry, and optionally a
// JSON section provider into the StatusRegistry. Both are tiny
// mutex-guarded maps: registration and scrapes are cold paths.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autosens::obs {

/// Liveness + readiness. /healthz answers 200 only when every registered
/// component reports ready; a process with no components is trivially live.
class Health {
 public:
  struct Component {
    std::string name;
    bool ready = false;
    std::string detail;
  };

  static Health& global();

  Health() = default;
  Health(const Health&) = delete;
  Health& operator=(const Health&) = delete;

  /// Insert or update a component's readiness (last write wins).
  void set_component(std::string_view name, bool ready, std::string_view detail = "");
  /// Components with a shorter lifetime than the process must remove
  /// themselves before destruction.
  void remove_component(std::string_view name);

  /// All components sorted by name.
  std::vector<Component> components() const;
  bool all_ready() const;

  /// Drop everything (tests).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Component, std::less<>> components_;
};

/// Named /statusz sections. A provider returns one JSON value (object,
/// array, or scalar — already encoded) rendered under "sections".<name>.
class StatusRegistry {
 public:
  /// Returns pre-encoded JSON for the section's value.
  using Provider = std::function<std::string()>;

  static StatusRegistry& global();

  StatusRegistry() = default;
  StatusRegistry(const StatusRegistry&) = delete;
  StatusRegistry& operator=(const StatusRegistry&) = delete;

  /// Register a section; the returned id unregisters it. Providers whose
  /// captured state dies before the process must remove_section first.
  std::uint64_t add_section(std::string_view name, Provider provider);
  void remove_section(std::uint64_t id);

  /// (name, rendered JSON value) pairs sorted by name. A provider that
  /// throws renders as a JSON string carrying the error.
  std::vector<std::pair<std::string, std::string>> render() const;

  /// Drop everything (tests).
  void clear();

 private:
  struct Section {
    std::uint64_t id = 0;
    std::string name;
    Provider provider;
  };
  mutable std::mutex mutex_;
  std::vector<Section> sections_;
  std::uint64_t next_id_ = 1;
};

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string json_escape(std::string_view s);

}  // namespace autosens::obs
