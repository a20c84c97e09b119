// Flight recorder, hang watchdog, and postmortem pipeline (DESIGN.md §16).
//
// In-process coverage: event rings and span stacks feeding the dump, the
// pending-op registry both backends report through Backend::pending_ops,
// watchdog stall detection (and its false-positive guard: compute progress
// ticking heartbeats must keep a short stall window quiet), and the
// postmortem a rank unwinding out of World::run_ranks leaves behind.
//
// Cross-process coverage: World::spawn_processes with a seeded kill must
// leave the victim's postmortem_rank<N>.json plus the supervisor's merged
// postmortem_run.json, with rank attribution surviving the fork boundary.
// Structural validation of those artifacts lives in tools/ltfb_postmortem.py
// (fixture-chained ctest below this suite in CMakeLists.txt).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "comm/communicator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/compute_pool.hpp"
#include "util/error.hpp"

namespace {

using namespace ltfb;
namespace flight = telemetry::flight;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// Fresh artifact directory + quiescent recorder per test. The recorder's
/// state is static by design (signal safety), so tests reset it instead of
/// constructing it.
class PostmortemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ltfb_postmortem_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    std::filesystem::remove_all(dir_);
    flight::stop_watchdog();
    flight::reset_for_tests();
    flight::set_postmortem_dir(dir_.string());
    flight::set_enabled(true);
  }

  void TearDown() override {
    flight::stop_watchdog();
    flight::set_enabled(false);
    flight::reset_for_tests();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

// ---- cross-process supervision ---------------------------------------------
//
// Declared first so it forks before any test in this binary has started a
// thread: ThreadSanitizer does not support forking a multi-threaded
// process, and later tests leave pool workers running.

TEST_F(PostmortemTest, SpawnKilledRankProducesMergedReport) {
  // Children read the flight configuration from the environment after
  // fork (spawn_socket_mesh arms the recorder before the backend is
  // constructed); the parent merges after reaping.
  ASSERT_EQ(::setenv("LTFB_FLIGHT_RECORDER", "1", 1), 0);
  ASSERT_EQ(::setenv("LTFB_POSTMORTEM_DIR", dir_.string().c_str(), 1), 0);
  ASSERT_EQ(::setenv("LTFB_FAULT_SCHEDULE", "kill:1@3", 1), 0);
  const auto statuses =
      comm::World::spawn_processes(2, [](comm::Communicator& comm) {
        const int peer = 1 - comm.rank();
        for (int i = 0; i < 6; ++i) {
          (void)comm.sendrecv(peer, i, comm::Buffer{0x2},
                              std::chrono::milliseconds(10'000));
        }
      });
  ::unsetenv("LTFB_FAULT_SCHEDULE");
  ::unsetenv("LTFB_FLIGHT_RECORDER");
  ::unsetenv("LTFB_POSTMORTEM_DIR");

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[1].code, comm::World::kExitFaultInjected);
  EXPECT_FALSE(statuses[0].pre_rendezvous);
  EXPECT_FALSE(statuses[1].pre_rendezvous);

  ASSERT_TRUE(std::filesystem::exists(dir_ / "postmortem_rank1.json"));
  const std::string rank1 = slurp(dir_ / "postmortem_rank1.json");
  EXPECT_NE(rank1.find("\"kind\": \"fault_injected\""), std::string::npos);
  EXPECT_NE(rank1.find("\"rank\": 1"), std::string::npos);

  ASSERT_TRUE(std::filesystem::exists(dir_ / "postmortem_run.json"));
  const std::string run = slurp(dir_ / "postmortem_run.json");
  EXPECT_NE(run.find("\"schema\": \"ltfb-postmortem-run-v1\""),
            std::string::npos);
  EXPECT_NE(run.find("\"world_size\": 2"), std::string::npos);
  // The dead rank's dump is embedded verbatim in its row.
  EXPECT_NE(run.find("\"exit_code\": 42"), std::string::npos);
  EXPECT_NE(run.find("ltfb-postmortem-v1"), std::string::npos);
}

// ---- rings, spans, and the dump shape --------------------------------------

TEST_F(PostmortemTest, DumpCapturesEventsSpansAndRank) {
  const telemetry::RankBinding bind(3);
  const telemetry::Span outer("ltfb/round");
  const telemetry::Span inner("ltfb/train_phase");
  flight::record(flight::EventKind::CommOp, "comm/send", /*a=*/17, /*b=*/2);
  flight::heartbeat();

  ASSERT_TRUE(flight::write_postmortem("error", "unit test dump", /*rank=*/3));
  const std::string body = slurp(flight::postmortem_path(3));
  EXPECT_NE(body.find("\"schema\": \"ltfb-postmortem-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\": \"error\""), std::string::npos);
  EXPECT_NE(body.find("\"rank\": 3"), std::string::npos);
  // The live span stack (this thread never unwound) and the comm event.
  EXPECT_NE(body.find("ltfb/round"), std::string::npos);
  EXPECT_NE(body.find("ltfb/train_phase"), std::string::npos);
  EXPECT_NE(body.find("comm/send"), std::string::npos);
  EXPECT_NE(body.find("\"heartbeats\": [{\"rank\": 3"), std::string::npos);
}

TEST_F(PostmortemTest, DisabledRecorderIsInert) {
  flight::set_enabled(false);
  flight::record(flight::EventKind::CommOp, "comm/send", 1, 2);
  flight::heartbeat();
  const flight::PendingOp op("comm/recv_wait", /*tag=*/9, /*peer=*/1);
  EXPECT_TRUE(flight::pending_ops().empty());
  EXPECT_EQ(flight::heartbeat_count(telemetry::bound_rank()), 0u);
}

TEST_F(PostmortemTest, PendingOpRegistryTracksLifetime) {
  const telemetry::RankBinding bind(1);
  {
    const flight::PendingOp op("comm/recv_wait", /*tag=*/42, /*peer=*/0);
    const auto ops = flight::pending_ops();
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_STREQ(ops[0].op, "comm/recv_wait");
    EXPECT_EQ(ops[0].tag, 42);
    EXPECT_EQ(ops[0].peer, 0);
    EXPECT_EQ(ops[0].rank, 1);
  }
  EXPECT_TRUE(flight::pending_ops().empty());
}

TEST_F(PostmortemTest, BackendExposesRegistry) {
  const auto backend = comm::make_backend(comm::BackendKind::InProc, 2);
  EXPECT_TRUE(backend->pending_ops().empty());
  const flight::PendingOp op("comm/collective_recv", /*tag=*/7, /*peer=*/1);
  const auto ops = backend->pending_ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].tag, 7);
}

TEST_F(PostmortemTest, ArgumentValidation) {
  EXPECT_THROW(flight::start_watchdog(0.0), InvalidArgument);
  EXPECT_THROW(flight::start_watchdog(-1.0), InvalidArgument);
  EXPECT_THROW(flight::set_process_rank(-2), InvalidArgument);
  EXPECT_THROW(flight::set_postmortem_dir(""), InvalidArgument);
  EXPECT_THROW(flight::set_postmortem_dir(std::string(1000, 'x')),
               InvalidArgument);
}

// ---- watchdog --------------------------------------------------------------

TEST_F(PostmortemTest, WatchdogDumpsStalledPendingOp) {
  const telemetry::RankBinding bind(0);
  ASSERT_TRUE(flight::start_watchdog(0.05));
  EXPECT_FALSE(flight::start_watchdog(0.05));  // already running
  const flight::PendingOp op("comm/recv_wait", /*tag=*/13, /*peer=*/1);
  // No heartbeat progress: the op must be declared a stall within ~2x the
  // window. Poll generously for CI machines under load.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!std::filesystem::exists(flight::postmortem_path(0)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(flight::postmortem_path(0)));
  const std::string body = slurp(flight::postmortem_path(0));
  EXPECT_NE(body.find("\"kind\": \"stall\""), std::string::npos);
  EXPECT_NE(body.find("watchdog/stall_detected"), std::string::npos);
  EXPECT_NE(body.find("\"blame\": {\"op\": \"comm/recv_wait\", \"tag\": 13"),
            std::string::npos);
}

TEST_F(PostmortemTest, WatchdogIgnoresProgressingRank) {
  // The false-positive guard: a long GEMM-style compute sweep under a
  // window far shorter than the sweep must NOT produce a stall dump,
  // because ComputePool::run_tasks (like DataStore preload/fetch) ticks
  // the owning rank's heartbeat as it makes progress.
  const telemetry::RankBinding bind(0);
  ASSERT_TRUE(flight::start_watchdog(0.05));
  const flight::PendingOp op("comm/recv_wait", /*tag=*/5, /*peer=*/1);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  std::array<double, 8> sinks{};
  while (std::chrono::steady_clock::now() < until) {
    util::ComputePool::instance().run_tasks(sinks.size(),
                                            [&sinks](std::size_t t) {
      double acc = 0.0;
      for (std::size_t i = 0; i < 1000; ++i) {
        acc += static_cast<double>(i ^ t);
      }
      sinks[t] += acc;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(sinks[0], 0.0);
  EXPECT_GT(flight::heartbeat_count(0), 0u);
  EXPECT_FALSE(std::filesystem::exists(flight::postmortem_path(0)))
      << "watchdog dumped a stall despite heartbeat progress";
}

TEST_F(PostmortemTest, WatchdogRearmsAfterProgressThenStall) {
  const telemetry::RankBinding bind(0);
  ASSERT_TRUE(flight::start_watchdog(0.05));
  const flight::PendingOp op("comm/recv_wait", /*tag=*/21, /*peer=*/1);
  // Progress for a while (no dump), then stop: the dump must still come.
  for (int i = 0; i < 30; ++i) {
    flight::heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(std::filesystem::exists(flight::postmortem_path(0)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!std::filesystem::exists(flight::postmortem_path(0)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(std::filesystem::exists(flight::postmortem_path(0)));
}

// ---- in-process unwind (the chaos-suite path) ------------------------------

TEST_F(PostmortemTest, RunRanksUnwindLeavesPostmortem) {
  comm::World world(2);
  comm::FaultSchedule schedule;
  schedule.kill(/*rank=*/1, /*at_op=*/2);
  world.set_fault_schedule(std::move(schedule));
  int failures = 0;
  for (const std::exception_ptr& error :
       world.run_ranks([](comm::Communicator& comm) {
         const int peer = 1 - comm.rank();
         for (int i = 0; i < 4; ++i) {
           try {
             (void)comm.sendrecv(peer, i, comm::Buffer{0x1},
                                 std::chrono::milliseconds(2'000));
           } catch (const comm::FaultInjected&) {
             throw;
           } catch (const Error&) {
             return;  // peer died; this rank survives
           }
         }
       })) {
    if (error) ++failures;
  }
  ASSERT_EQ(failures, 1);
  ASSERT_TRUE(std::filesystem::exists(flight::postmortem_path(1)));
  const std::string body = slurp(flight::postmortem_path(1));
  EXPECT_NE(body.find("\"kind\": \"fault_injected\""), std::string::npos);
  EXPECT_NE(body.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(body.find("fault/kill_injected"), std::string::npos);
}

}  // namespace
