#pragma once
// Calibration: a fixed task that measures how fast the machine is right
// now, so op latencies can be expressed in calibration units.
//
// On a shared host the whole machine's speed drifts: over minutes it ran
// up to 1.6 times slower, and every workload's latency moved with it.
// The calibration task moves with it too, so the end-to-end latency
// metric is the op's median divided by the calibration's lower quartile,
// both measured in the same run, the calibration interleaved with the
// ops. Over ten seeds this cut the spread (interquartile range over
// median) of mult-write from 8% to 2%, of tricount-masked from 11% to 7%,
// of ingest-query from 19% to 14% and of mult-remote from 16% to 13%.
//
// The task shares no code with the program under test: it builds and
// walks a sorted map of short string keys entirely inside a private,
// pre-touched arena, so not even the global allocator is shared. The
// harness calibrates only while the program is idle (no op running, its
// background compactions drained), so a change to the program cannot
// move the calibration; only the machine can.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

namespace perfbench {

class Calibration {
 public:
  Calibration() : arena_(kArenaBytes) {
    for (std::size_t i = 0; i < arena_.size(); i += 4096) arena_[i] = std::byte{1};
  }

  /// Runs the task once and returns its wall time in seconds.
  double run() {
    const auto start = std::chrono::steady_clock::now();
    std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::map<std::pmr::string, std::pmr::string> map(&pool);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    char key[24];
    for (std::size_t i = 0; i < kKeys; ++i) {
      x ^= x << 13;  // xorshift64: the same keys on every run
      x ^= x >> 7;
      x ^= x << 17;
      std::snprintf(key, sizeof(key), "v|%07llu|q",
                    static_cast<unsigned long long>(x % 10000000));
      map.emplace(std::pmr::string(key, &pool), std::pmr::string("1", &pool));
    }
    std::uint64_t sum = 0;
    for (const auto& [k, v] : map) sum = sum * 31 + static_cast<unsigned char>(k[4]) + v.size();
    checksum_ = checksum_ + sum;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  /// Keeps the task's result observable, so it cannot be optimized away.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kKeys = 60000;
  static constexpr std::size_t kArenaBytes = std::size_t{24} << 20;

  std::vector<std::byte> arena_;
  volatile std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
