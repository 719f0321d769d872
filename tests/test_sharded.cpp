// Frontier-sharded round engine tests.
//
// The contract under test (core/sharding): within the sharded engine the
// trajectory depends only on the trial seed — never on the shard count,
// the worker count, or the storage backend — because every random
// decision draws from an addressable per-(phase, slot) Philox chain and
// every merge visits candidates in global slot order. shards=1 is the
// serial reference; 2/4/7-way runs must reproduce it byte for byte.
// Also covered: the allocation-free parallel_for_ranges primitive (nested
// and concurrent range jobs, idle workers joining them), zero steady-state
// allocations per trial, the trial schedule on pools of every width, and
// the scenario-level rejection of the incompatible option combinations.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc_probe.hpp"
#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/sharding.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/scenario.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {
namespace {

// ---- parallel_for_ranges -----------------------------------------------

TEST(ThreadPoolRanges, ShardRangePartitionsExactly) {
  for (const std::size_t count : {0u, 1u, 5u, 64u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t expect_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] = ThreadPool::shard_range(count, shards, s);
        EXPECT_EQ(begin, expect_begin) << count << "/" << shards << "#" << s;
        EXPECT_GE(end, begin);
        // Balanced: range sizes differ by at most one.
        EXPECT_LE(end - begin, count / shards + 1);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, count);
    }
  }
}

TEST(ThreadPoolRanges, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_ranges(1000, 4, [&](std::size_t /*shard*/,
                                        std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolRanges, ClampsShardsAndHandlesEmpty) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for_ranges(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  // More shards than items: clamped to one shard per item.
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> shards_seen{0};
  pool.parallel_for_ranges(
      3, 16, [&](std::size_t, std::size_t begin, std::size_t end) {
        shards_seen.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  EXPECT_EQ(shards_seen.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolRanges, NestedFanOutFlattensInline) {
  // A worker of the pool issuing parallel_for_ranges against the SAME pool
  // must not deadlock: it publishes its job like any caller and runs its
  // own claims, so every sum still lands exactly once.
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for_ranges(
        100, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
        });
  });
  EXPECT_EQ(sum.load(), 6u * (100u * 99u / 2));
}

TEST(ThreadPoolRanges, NestedParallelForFlattensInline) {
  // A nested parallel_for (a queued task issuing tasks) still runs inline
  // on the worker: queue-and-block from inside the pool would deadlock.
  ThreadPool pool(3);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(25, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolRanges, ReusableAndConcurrentWithTasks) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_ranges(
        257, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
        });
    ASSERT_EQ(sum.load(), 257u * 256u / 2);
  }
}

TEST(ThreadPoolRanges, IdleWorkersJoinAWorkersJob) {
  // A range job issued from a pool worker is published like any other:
  // the idle workers claim its ranges. Each range spins (bounded by one
  // shared deadline) until a second thread has run a range, so the test
  // fails rather than hangs when the job runs on its caller alone.
  ThreadPool pool(4);
  std::mutex runners_mutex;
  std::set<std::thread::id> runners;
  bool issued_on_worker = false;
  pool.parallel_for_indexed(2, [&](std::size_t worker, std::size_t i) {
    if (i != 0) return;
    issued_on_worker = worker < pool.worker_count();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    pool.parallel_for_ranges(
        4, 4, [&](std::size_t, std::size_t, std::size_t) {
          {
            std::lock_guard lock(runners_mutex);
            runners.insert(std::this_thread::get_id());
          }
          while (std::chrono::steady_clock::now() < deadline) {
            std::lock_guard lock(runners_mutex);
            if (runners.size() >= 2) break;
          }
        });
  });
  EXPECT_TRUE(issued_on_worker);
  EXPECT_GE(runners.size(), 2u);
}

TEST(ThreadPoolRanges, ConcurrentCallersRunEveryIndexOnce) {
  // Several foreign threads keep range jobs in flight on one pool at once,
  // interleaved with parallel_for batches whose tasks fan out themselves.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kJobs = 300;
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t j = 0; j < kJobs; ++j) {
        if (j % 10 == 0) {
          std::atomic<std::size_t> sum{0};
          pool.parallel_for(6, [&](std::size_t) {
            pool.parallel_for_ranges(
                50, 3, [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
                });
          });
          if (sum.load() != 6u * (50u * 49u / 2)) bad.fetch_add(1);
          continue;
        }
        const std::size_t count = 1 + (c * kJobs + j) % 97;
        std::vector<std::atomic<int>> hits(count);
        pool.parallel_for_ranges(
            count, 1 + j % 7,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
            });
        for (const auto& h : hits) {
          if (h.load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(ThreadPoolRanges, ShardPoolIsThePoolRunningTheWork) {
  // A trial fans out on the pool that runs it: on that pool's workers,
  // and on the caller when the pool runs the callback inline (one index,
  // or one worker). Elsewhere the thread's override, else global_pool().
  ThreadPool pool(3);
  ThreadPool single(1);
  ThreadPool other(2);
  std::atomic<std::size_t> wrong{0};
  auto expect_pool = [&](ThreadPool& want) {
    return [&wrong, &want](std::size_t) {
      if (&shard_pool() != &want) wrong.fetch_add(1);
    };
  };
  EXPECT_EQ(&shard_pool(), &global_pool());
  pool.parallel_for(12, expect_pool(pool));
  pool.parallel_for(1, expect_pool(pool));
  single.parallel_for(4, expect_pool(single));
  ThreadPool* const previous = set_shard_pool(&other);
  pool.parallel_for(1, expect_pool(pool));
  EXPECT_EQ(&shard_pool(), &other);
  set_shard_pool(previous);
  EXPECT_EQ(&shard_pool(), &global_pool());
  EXPECT_EQ(wrong.load(), 0u);
}

thread_local bool tl_inside_task = false;

TEST(ThreadPoolRanges, WaitingCallerNeverRunsAQueuedTask) {
  // A queued task is a whole trial; a caller waiting on its range job may
  // help with other jobs' ranges but must never start a queued task
  // nested inside its own (that would hand its thread's TrialArena to two
  // live trials). Staged on two workers: a task's two ranges run on its
  // caller and the other worker; meanwhile a foreign thread queues more
  // tasks, and the helper's range holds until the caller has finished its
  // own range and is waiting with those tasks in the queue. Every task
  // checks its thread was not already inside one. Spins are bounded by
  // one deadline, so a broken pool fails instead of hanging.
  ThreadPool pool(2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto await = [&](const std::atomic<bool>& flag) {
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    }
  };
  std::atomic<std::size_t> nested{0};
  std::atomic<std::size_t> tasks{0};
  auto enter_task = [&] {
    if (tl_inside_task) nested.fetch_add(1);
    tl_inside_task = true;
  };
  auto leave_task = [&] {
    tl_inside_task = false;
    tasks.fetch_add(1);
  };
  std::atomic<bool> both_started{false};
  std::atomic<bool> queue_more{false};
  std::atomic<bool> queued{false};
  std::atomic<bool> caller_range_done{false};
  std::thread foreign([&] {
    await(queue_more);
    queued = true;
    pool.parallel_for(2, [&](std::size_t) {
      enter_task();
      leave_task();
    });
  });
  pool.parallel_for(2, [&](std::size_t i) {
    enter_task();
    if (i == 0) {
      const std::thread::id caller = std::this_thread::get_id();
      std::atomic<int> started{0};
      pool.parallel_for_ranges(
          2, 2, [&](std::size_t, std::size_t, std::size_t) {
            if (started.fetch_add(1) + 1 == 2) both_started = true;
            await(both_started);
            if (std::this_thread::get_id() == caller) {
              queue_more = true;
              await(queued);
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              caller_range_done = true;
            } else {
              await(caller_range_done);
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
          });
    }
    leave_task();
  });
  queue_more = true;  // release the foreign thread if staging went astray
  foreign.join();
  EXPECT_TRUE(both_started.load());
  EXPECT_EQ(tasks.load(), 4u);
  EXPECT_EQ(nested.load(), 0u);
}

// ---- SlotDraws addressability ------------------------------------------

TEST(ShardDraws, SlotChainsAreAddressableAndDisjoint) {
  const ShardPlane plane(/*trial_seed=*/42, /*round=*/7);
  // Re-opening the same (phase, slot) replays the identical chain — the
  // property that makes the trajectory independent of the partition.
  SlotDraws a(plane, kShardPhasePush, 3);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 9; ++i) first.push_back(a.next_u32());
  SlotDraws b(plane, kShardPhasePush, 3);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(b.next_u32(), first[i]);
  // Different slot or phase: a different chain.
  SlotDraws c(plane, kShardPhasePush, 4);
  SlotDraws d(plane, kShardPhasePull, 3);
  EXPECT_NE(c.next_u32(), first[0]);
  EXPECT_NE(d.next_u32(), first[0]);
  // Different round: a different plane entirely.
  const ShardPlane plane2(42, 8);
  SlotDraws e(plane2, kShardPhasePush, 3);
  EXPECT_NE(e.next_u32(), first[0]);
}

TEST(ShardDraws, UnitDoublesAreInRange) {
  const ShardPlane plane(1, 1);
  SlotDraws draws(plane, kShardPhaseWalk, 0);
  for (int i = 0; i < 100; ++i) {
    const double u = draws.next_unit_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---- Batched slot fills --------------------------------------------------

constexpr std::uint32_t kAllPhases[] = {
    kShardPhaseWalk,        kShardPhasePush,        kShardPhasePull,
    kShardPhaseAgentInform, kShardPhaseAgentCatch,  kShardPhaseMeet};

TEST(ShardDraws, BatchFillMatchesReferenceAndSlotDraws) {
  const ShardPlane plane(/*trial_seed=*/91, /*round=*/0x1234567890ull);
  // Unaligned starts, a large one, and every start within 8 of 2^32, where
  // the 32-bit slot counter wraps inside the batch.
  std::vector<std::uint32_t> firsts = {0, 1, 3, 5, 7, 13, 1000003};
  for (std::uint32_t k = 1; k <= 8; ++k) firsts.push_back(0u - k);
  constexpr std::uint32_t kMaxCount = 130;
  constexpr std::uint32_t kCanary = 0xC0FFEE11u;
  for (const std::uint32_t phase : kAllPhases) {
    for (const std::uint32_t first : firsts) {
      for (std::uint32_t count = 0; count <= kMaxCount; ++count) {
        std::vector<std::uint32_t> fast(4 * kMaxCount + 4, kCanary);
        std::vector<std::uint32_t> ref(4 * kMaxCount + 4, kCanary);
        philox_fill_slots(plane, phase, first, count, fast.data());
        philox_fill_slots_reference(plane, phase, first, count, ref.data());
        ASSERT_EQ(fast, ref) << "phase " << phase << " first " << first
                             << " count " << count;
        // Nothing past the last block is written.
        EXPECT_EQ(fast[4 * count], kCanary);
        if (count != kMaxCount) continue;
        for (std::uint32_t j = 0; j < count; ++j) {
          SlotDraws chain(plane, phase, first + j);
          for (std::uint32_t w = 0; w < 4; ++w) {
            ASSERT_EQ(fast[4 * j + w], chain.next_u32())
                << "phase " << phase << " slot " << first + j;
          }
        }
      }
    }
  }
}

TEST(ShardDraws, BatchedSlotsContinueTheSameChain) {
  // Past its four pre-filled words a batched slot continues at seq 1, so
  // every word it serves — rejection retries and loss/tp words included —
  // is the word a fresh SlotDraws chain serves. Slots are skipped freely
  // and the range crosses several 64-slot batches.
  const ShardPlane plane(/*trial_seed=*/5, /*round=*/3);
  for (const std::uint32_t phase : kAllPhases) {
    SlotBatch batch(plane, phase, /*begin=*/5, /*end=*/300);
    for (const std::size_t slot : {5u, 6u, 9u, 68u, 69u, 70u, 200u, 299u}) {
      SlotDraws batched = batch.at(slot);
      SlotDraws fresh(plane, phase, static_cast<std::uint32_t>(slot));
      for (int w = 0; w < 13; ++w) {
        ASSERT_EQ(batched.next_u32(), fresh.next_u32())
            << "phase " << phase << " slot " << slot << " word " << w;
      }
    }
  }
}

// A word source that serves hand-made seq-0 words, then the slot's real
// chain from seq 1 on: what a batched slot must serve when its seq-0
// block holds exactly these words. Counts the words it hands out.
class HandMadeChain {
 public:
  HandMadeChain(const ShardPlane& plane, std::uint32_t phase,
                std::uint32_t slot, const std::uint32_t* seq0)
      : head_(seq0), tail_(plane, phase, slot) {
    for (int w = 0; w < 4; ++w) (void)tail_.next_u32();  // skip seq 0
  }
  std::uint32_t next_u32() {
    ++served;
    return served <= 4 ? head_[served - 1] : tail_.next_u32();
  }
  std::uint64_t operator()() {
    const std::uint64_t lo = next_u32();
    return lo | (std::uint64_t{next_u32()} << 32);
  }
  int served = 0;

 private:
  const std::uint32_t* head_;
  SlotDraws tail_;
};

TEST(ShardDraws, LemireRejectionOnBatchedWordsReadsTheContinuation) {
  const ShardPlane plane(/*trial_seed=*/17, /*round=*/2);
  constexpr std::uint32_t kSlot = 77;
  // All-zero words: x = 0 always lands in the rejection zone (low 0 <
  // 2^64 mod 3 for word_below, 0 < 2^63 mod 3 with a move coin for
  // fused_lazy_slot), so both u64s of the block are rejected and the
  // answer comes from the seq-1 block.
  const std::uint32_t zeros[4] = {0, 0, 0, 0};
  // One rejected u64, then an accepted one from the same block.
  const std::uint32_t one_reject[4] = {0, 0, 0x9E3779B9u, 0x3C6EF372u};
  for (const std::uint32_t* seq0 : {zeros, one_reject}) {
    for (const std::uint32_t bound : {3u, 5u, 7u, 1000003u}) {
      {
        SlotDraws batched(plane, kShardPhasePush, kSlot, seq0);
        HandMadeChain expect(plane, kShardPhasePush, kSlot, seq0);
        EXPECT_EQ(word_below(batched, bound), word_below(expect, bound))
            << "bound " << bound;
        EXPECT_GT(expect.served, 2) << "rejection branch not taken";
      }
      {
        SlotDraws batched(plane, kShardPhaseWalk, kSlot, seq0);
        HandMadeChain expect(plane, kShardPhaseWalk, kSlot, seq0);
        std::uint32_t got = 0;
        std::uint32_t want = 0;
        ASSERT_TRUE(fused_lazy_slot(batched, bound, got));
        ASSERT_TRUE(fused_lazy_slot(expect, bound, want));
        EXPECT_EQ(got, want) << "bound " << bound;
        EXPECT_GT(expect.served, 2) << "rejection branch not taken";
      }
    }
  }
}

// ---- Spec grammar ------------------------------------------------------

TEST(ShardSpec, RoundTripsAndRejects) {
  for (const char* text :
       {"push(shards=auto)", "push(shards=4)", "push-pull(shards=2)",
        "visit-exchange(shards=7)", "meet-exchange(shards=2)",
        "hybrid(shards=auto)"}) {
    std::string error;
    const auto spec = ProtocolSpec::parse(text, &error);
    ASSERT_TRUE(spec) << text << ": " << error;
    EXPECT_EQ(spec->name(), text);
    EXPECT_NE(spec->shards(), 0u);
  }
  // 0 is not a spelling (absent is the only legacy form); the walk-shared
  // protocols that do not implement the engine reject the key outright.
  EXPECT_FALSE(ProtocolSpec::parse("push(shards=0)"));
  EXPECT_FALSE(ProtocolSpec::parse("push(shards=-1)"));
  EXPECT_FALSE(ProtocolSpec::parse("frog(shards=2)"));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(shards=2)"));
  // Default specs stay bare: no shards= key leaks into canonical text.
  EXPECT_EQ(ProtocolSpec::parse("push")->name(), "push");
  EXPECT_EQ(ProtocolSpec::parse("push")->shards(), 0u);
}

TEST(ShardSpec, EnginePolicyIsPureInItsInputs) {
  EXPECT_FALSE(sharding_enabled(0, 1));
  EXPECT_FALSE(sharding_enabled(0, std::uint64_t{1} << 40));
  EXPECT_TRUE(sharding_enabled(1, 1));
  EXPECT_TRUE(sharding_enabled(7, 16));
  EXPECT_FALSE(sharding_enabled(kShardsAuto, kShardAutoThreshold - 1));
  EXPECT_TRUE(sharding_enabled(kShardsAuto, kShardAutoThreshold));
}

TEST(ShardSpec, ScenarioValidationRejectsIncompatibleCombos) {
  const auto reject = [](const char* line, const char* needle) {
    std::string error;
    const auto spec = ScenarioSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    EXPECT_FALSE(validate_scenarios({*spec}, &error)) << line;
    EXPECT_NE(error.find(needle), std::string::npos) << line << ": " << error;
  };
  reject("cycle(n=64) push(shards=2,edge_traffic=on)", "edge_traffic");
  reject("cycle(n=64) push-pull(shards=2,edge_traffic=on)", "edge_traffic");
  reject("cycle(n=64) visit-exchange(shards=2,edge_traffic=on)",
         "edge_traffic");
  reject("cycle(n=64) meet-exchange(shards=2,edge_traffic=on)",
         "edge_traffic");
  reject("cycle(n=64) visit-exchange(shards=2,engine=counter)", "engine");
  reject("cycle(n=64) meet-exchange(shards=2,engine=counter)", "engine");
  reject("cycle(n=64) hybrid(shards=2,engine=counter)", "engine");
  // The compatible forms pass the same validator.
  std::string error;
  const auto ok = ScenarioSpec::parse(
      "cycle(n=64) push(shards=2,curve=on,inform_rounds=on)", &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_TRUE(validate_scenarios({*ok}, &error)) << error;
}

// ---- Sharded-vs-serial trajectories ------------------------------------

// Full-trajectory equality: broadcast time, final count, per-round curve,
// and the per-vertex inform rounds (per-agent too where present) — the
// strongest observable trajectory the simulators expose.
void expect_same_result(const RunResult& a, const RunResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.agent_rounds, b.agent_rounds) << what;
  EXPECT_EQ(a.informed, b.informed) << what;
  EXPECT_EQ(a.informed_curve, b.informed_curve) << what;
  EXPECT_EQ(a.vertex_inform_round, b.vertex_inform_round) << what;
  EXPECT_EQ(a.agent_inform_round, b.agent_inform_round) << what;
}

constexpr std::uint32_t kShardCounts[] = {2, 4, 7};

RunResult run_push_shards(const Graph& g, std::uint64_t seed,
                          std::uint32_t shards, float tp, double loss) {
  PushOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.loss_probability = loss;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_push(g, 0, seed, opt);
}

TEST(ShardedPush, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(96), gen::complete(48),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_push_shards(g, seed, 1, 1.0f, 0.0);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_push_shards(g, seed, shards, 1.0f, 0.0),
                           "push shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedPush, HeterogeneousAndLossyTrajectoriesMatch) {
  const Graph g = gen::circulant(128, 6);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_push_shards(g, seed, 1, 0.7f, 0.2);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_push_shards(g, seed, shards, 0.7f, 0.2),
                         "lossy push shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedPush, ImplicitAndOwnedBackendsAgree) {
  // Same structure, different storage: the sharded engine must not care.
  const auto spec_imp = GraphSpec::parse("star(leaves=512)");
  const auto spec_own = GraphSpec::parse("star(leaves=512,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  ASSERT_FALSE(own.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_push_shards(imp, seed, 1, 1.0f, 0.0);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_push_shards(own, seed, shards, 1.0f, 0.0),
                         "backend shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedPush, HubBumpPathMatchesAtHugeDegree) {
  // A star hub at deg >= 1<<16 takes the parallel informed-neighbor bump
  // inside inform(); the counters it feeds must come out identical to the
  // serial bump. Bounded rounds keep the Theta(n log n) star run cheap.
  const auto spec = GraphSpec::parse("star(leaves=65536)");
  ASSERT_TRUE(spec);
  Rng rng(1);
  const Graph g = spec->make(rng);
  PushOptions opt;
  opt.shards = 1;
  opt.max_rounds = 6;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  const RunResult ref = run_push(g, 0, 11, opt);
  EXPECT_FALSE(ref.completed);
  for (const std::uint32_t shards : kShardCounts) {
    opt.shards = shards;
    expect_same_result(ref, run_push(g, 0, 11, opt),
                       "hub bump shards=" + std::to_string(shards));
  }
}

RunResult run_push_pull_shards(const Graph& g, std::uint64_t seed,
                               std::uint32_t shards, float tp, double loss) {
  PushPullOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.loss_probability = loss;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_push_pull(g, 0, seed, opt);
}

TEST(ShardedPushPull, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(96), gen::star(64),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_push_pull_shards(g, seed, 1, 1.0f, 0.0);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(
            ref, run_push_pull_shards(g, seed, shards, 1.0f, 0.0),
            "push-pull shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedPushPull, HeterogeneousAndLossyTrajectoriesMatch) {
  const Graph g = gen::circulant(128, 6);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_push_pull_shards(g, seed, 1, 0.6f, 0.15);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(
          ref, run_push_pull_shards(g, seed, shards, 0.6f, 0.15),
          "lossy push-pull shards=" + std::to_string(shards));
    }
  }
}

RunResult run_visitx_shards(const Graph& g, std::uint64_t seed,
                            std::uint32_t shards, float tp) {
  WalkOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_visit_exchange(g, 0, seed, opt);
}

TEST(ShardedVisitExchange, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(64), gen::complete(48),
                          gen::grid2d(8, 8)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_visitx_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_visitx_shards(g, seed, shards, 1.0f),
                           "visitx shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedVisitExchange, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_visitx_shards(g, seed, 1, 0.7f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_visitx_shards(g, seed, shards, 0.7f),
                         "het visitx shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedVisitExchange, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=8,cols=8)");
  const auto spec_own = GraphSpec::parse("torus(rows=8,cols=8,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_visitx_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_visitx_shards(own, seed, shards, 1.0f),
                         "backend visitx shards=" + std::to_string(shards));
    }
  }
}

RunResult run_meetx_shards(const Graph& g, std::uint64_t seed,
                           std::uint32_t shards, float tp) {
  WalkOptions opt = MeetExchangeProcess::default_options();
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_meet_exchange(g, 0, seed, opt);
}

TEST(ShardedMeetExchange, TrajectoryIndependentOfShardCount) {
  // cycle is bipartite: the default auto_bipartite laziness must resolve
  // identically through the sharded walk kernel.
  const Graph graphs[] = {gen::cycle(48), gen::complete(32),
                          gen::grid2d(6, 6)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_meetx_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_meetx_shards(g, seed, shards, 1.0f),
                           "meetx shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedMeetExchange, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_meetx_shards(g, seed, 1, 0.7f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_meetx_shards(g, seed, shards, 0.7f),
                         "het meetx shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedMeetExchange, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=6,cols=6)");
  const auto spec_own = GraphSpec::parse("torus(rows=6,cols=6,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_meetx_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_meetx_shards(own, seed, shards, 1.0f),
                         "backend meetx shards=" + std::to_string(shards));
    }
  }
}

RunResult run_hybrid_shards(const Graph& g, std::uint64_t seed,
                            std::uint32_t shards, float tp) {
  WalkOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_hybrid(g, 0, seed, opt);
}

TEST(ShardedHybrid, TrajectoryIndependentOfShardCount) {
  // The dual phase exercises every draw phase at once: agent informs,
  // push, pull, and agent catches in one round.
  const Graph graphs[] = {gen::cycle(96), gen::star(64),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_hybrid_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_hybrid_shards(g, seed, shards, 1.0f),
                           "hybrid shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedHybrid, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_hybrid_shards(g, seed, 1, 0.6f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_hybrid_shards(g, seed, shards, 0.6f),
                         "het hybrid shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedHybrid, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=8,cols=8)");
  const auto spec_own = GraphSpec::parse("torus(rows=8,cols=8,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_hybrid_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_hybrid_shards(own, seed, shards, 1.0f),
                         "backend hybrid shards=" + std::to_string(shards));
    }
  }
}

// ---- Sharded owned-CSR build -------------------------------------------

TEST(ShardedCsrBuild, ContentIdenticalAcrossWidths) {
  // A scrambled-order edge list (strided permutation of a two-offset
  // circulant) so the parallel chunk-sort and merge actually reorder, plus
  // an irregular star overlay so degrees differ per row.
  const Vertex n = 700;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    edges.emplace_back(v, (v + 5) % n);
  }
  for (Vertex v = 10; v < 200; v += 7) edges.emplace_back(3, v);
  std::vector<std::pair<Vertex, Vertex>> scrambled(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    scrambled[k] = edges[(k * 911) % edges.size()];  // 911 coprime to size
  }

  ThreadPool pool(3);
  ThreadPool* prev = set_shard_pool(&pool);
  const Graph ref = Graph::build_owned(n, scrambled, 1);
  for (const std::uint32_t shards : {2u, 4u, 7u}) {
    const Graph g = Graph::build_owned(n, scrambled, shards);
    ASSERT_EQ(g.num_vertices(), ref.num_vertices());
    ASSERT_EQ(g.num_edges(), ref.num_edges());
    const CsrView a = ref.csr();
    const CsrView b = g.csr();
    for (Vertex v = 0; v <= n; ++v) EXPECT_EQ(a.offsets[v], b.offsets[v]);
    for (std::size_t i = 0; i < 2 * ref.num_edges(); ++i) {
      ASSERT_EQ(a.neighbors[i], b.neighbors[i]) << "slot " << i;
      ASSERT_EQ(a.edge_ids[i], b.edge_ids[i]) << "slot " << i;
    }
    for (EdgeId e = 0; e < ref.num_edges(); ++e) {
      EXPECT_EQ(g.edge_endpoints(e), ref.edge_endpoints(e));
    }
    EXPECT_EQ(g.min_degree(), ref.min_degree());
    EXPECT_EQ(g.max_degree(), ref.max_degree());
    EXPECT_EQ(g.degrees_all_pow2(), ref.degrees_all_pow2());
  }
  // The sharded-built graph is a drop-in substrate: same trajectory as the
  // serially built one under the sharded round engine.
  const Graph wide = Graph::build_owned(n, scrambled, 4);
  expect_same_result(run_push_shards(ref, 5, 2, 1.0f, 0.0),
                     run_push_shards(wide, 5, 2, 1.0f, 0.0), "csr substrate");
  set_shard_pool(prev);
}

TEST(ShardedCsrBuild, PropertiesAndValidationMatchSerial) {
  // Degenerate shapes through the parallel path: single edge, path, and a
  // width far above the edge count (ranges clamp empty).
  ThreadPool pool(2);
  ThreadPool* prev = set_shard_pool(&pool);
  const std::vector<std::pair<Vertex, Vertex>> one = {{1, 0}};
  const Graph g1 = Graph::build_owned(2, one, 8);
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g1.degree(0), 1u);
  EXPECT_TRUE(g1.has_edge(0, 1));
  std::vector<std::pair<Vertex, Vertex>> path;
  for (Vertex v = 0; v + 1 < 9; ++v) path.emplace_back(v + 1, v);
  const Graph gp = Graph::build_owned(9, path, 4);
  const Graph gs = Graph::build_owned(9, path, 1);
  EXPECT_EQ(gp.properties().connected, gs.properties().connected);
  EXPECT_EQ(gp.properties().bipartite, gs.properties().bipartite);
  set_shard_pool(prev);
}

// ---- Zero steady-state allocations -------------------------------------

TEST(ShardedAlloc, SteadyStateTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  for (const char* text :
       {"push(shards=2)", "push-pull(shards=2)", "visit-exchange(shards=2)",
        "meet-exchange(shards=2)", "hybrid(shards=2)",
        "push(shards=4,tp=0.8)", "push-pull(shards=4,loss=0.1)",
        "meet-exchange(shards=4,tp=0.8)", "hybrid(shards=4,tp=0.8)"}) {
    const auto spec = ProtocolSpec::parse(text);
    ASSERT_TRUE(spec) << text;
    // Warm-up: scratch segments grow to their high-water mark.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      (void)run_protocol(g, *spec, 0, derive_seed(4242, seed), &arena);
    }
    test_alloc::g_allocations.store(0);
    test_alloc::g_count.store(true);
    double acc = 0.0;
    for (std::uint64_t seed = 8; seed < 24; ++seed) {
      acc += run_protocol(g, *spec, 0, derive_seed(4242, seed), &arena)
                 .rounds;
    }
    test_alloc::g_count.store(false);
    EXPECT_EQ(test_alloc::g_allocations.load(), 0u)
        << text << " (rounds acc " << acc << ")";
  }
}

// ---- Trial schedule across pool widths ----------------------------------

TrialSet run_batch_on_pool(const Graph& g, const ProtocolSpec& spec,
                           std::size_t trials, ThreadPool* pool) {
  TrialSet set;
  TrialBatch batch;
  batch.graph = &g;
  batch.protocol = &spec;
  batch.source = 0;
  batch.trials = trials;
  batch.master_seed = 99;
  batch.out = &set;
  TrialRunOptions options;
  options.pool = pool;
  const TrialRunOutcome outcome = run_trial_batches({batch}, options);
  EXPECT_EQ(outcome.trials_run, trials);
  return set;
}

TEST(TwoAxisSchedule, WideAndNarrowProduceIdenticalSamples) {
  // 2 trials on a 4-worker pool: the two idle workers join the trials'
  // range fan-outs. On a 1-worker pool the same batch runs every range on
  // the caller. Samples must be bit-identical either way, and identical to
  // the plain run_trials path on the global pool.
  const Graph g = gen::circulant(192, 6);
  const auto spec = ProtocolSpec::parse("push(shards=2)");
  ASSERT_TRUE(spec);
  ThreadPool wide_pool(4);
  ThreadPool narrow_pool(1);
  const TrialSet wide = run_batch_on_pool(g, *spec, 2, &wide_pool);
  const TrialSet narrow = run_batch_on_pool(g, *spec, 2, &narrow_pool);
  EXPECT_EQ(wide.rounds, narrow.rounds);
  EXPECT_EQ(wide.informed, narrow.informed);
  EXPECT_EQ(wide.incomplete, narrow.incomplete);
  const TrialSet global = run_trials(g, *spec, 0, 2, 99);
  EXPECT_EQ(wide.rounds, global.rounds);
}

TEST(TwoAxisSchedule, ManyTrialsStillDrainNarrow) {
  // 6 trials on 2 workers keep every worker busy with its own trial; on 8
  // workers the spare ones join the fan-outs. The samples must match.
  const Graph g = gen::cycle(128);
  const auto spec = ProtocolSpec::parse("push-pull(shards=3)");
  ASSERT_TRUE(spec);
  ThreadPool small_pool(2);
  ThreadPool big_pool(8);
  const TrialSet narrow = run_batch_on_pool(g, *spec, 6, &small_pool);
  const TrialSet wide = run_batch_on_pool(g, *spec, 6, &big_pool);
  EXPECT_EQ(narrow.rounds, wide.rounds);
  EXPECT_EQ(narrow.informed, wide.informed);
}

TEST(TwoAxisSchedule, MixedShardedAndSerialBatchesEmitInOrder) {
  const Graph g = gen::cycle(64);
  const auto sharded = ProtocolSpec::parse("push(shards=2)");
  const auto serial = ProtocolSpec::parse("push");
  ASSERT_TRUE(sharded && serial);
  TrialSet set_a;
  TrialSet set_b;
  TrialBatch a;
  a.graph = &g;
  a.protocol = &*sharded;
  a.trials = 1;
  a.master_seed = 5;
  a.out = &set_a;
  TrialBatch b = a;
  b.protocol = &*serial;
  b.out = &set_b;
  ThreadPool pool(4);
  std::vector<std::size_t> emitted;
  std::mutex emitted_mutex;
  TrialRunOptions options;
  options.pool = &pool;
  options.on_batch_done = [&](std::size_t i) {
    std::lock_guard lock(emitted_mutex);
    emitted.push_back(i);
  };
  const TrialRunOutcome outcome = run_trial_batches({a, b}, options);
  EXPECT_EQ(outcome.trials_run, 2u);
  EXPECT_EQ(emitted, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(set_a.rounds.size(), 1u);
  EXPECT_EQ(set_b.rounds.size(), 1u);
  // The serial batch's sample is untouched by the sharded engine riding
  // alongside it in the same queue.
  const TrialSet alone = run_trials(g, *serial, 0, 1, 5);
  EXPECT_EQ(set_b.rounds, alone.rounds);
}

}  // namespace
}  // namespace rumor
