// Serve journal robustness: append/replay round-trip, torn tails, CRC
// corruption, version/magic rejection, and checkpoint compaction. The
// resume contract rests on one property — replay keeps exactly the valid
// record prefix — so these tests attack every byte position.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "serve/journal.hpp"

namespace rumor::serve {
namespace {

namespace fs = std::filesystem;

class ServeJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent ctest runs on one host apart: random_seed()
    // is 0 unless the tests are shuffled.
    dir_ = fs::temp_directory_path() /
           ("rumor_serve_journal_" + std::to_string(::getpid()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "serve.journal").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string read_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void write_bytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A journal with two jobs, three trials on job 1, job 2 cancelled.
  void write_sample_journal() {
    Journal journal;
    JournalState state;
    std::string error;
    ASSERT_TRUE(journal.open(path_, &state, &error)) << error;
    JournalJob job1;
    job1.id = 1;
    job1.client = "alice";
    job1.lines = {"complete(n=64) push trials=4",
                  "cycle(n=32) push-pull trials=2"};
    journal.append_job(job1);
    JournalJob job2;
    job2.id = 2;
    job2.client = "bob";
    job2.lines = {"star(leaves=16) push source=1 trials=3"};
    journal.append_job(job2);
    for (std::uint32_t t = 0; t < 3; ++t) {
      TrialRecord rec;
      rec.scenario = t % 2;
      rec.trial = t;
      rec.rounds = 10.0 + t;
      rec.agent_rounds = 10.0 + t;
      rec.informed = 64.0;
      rec.completed = t != 2;
      journal.append_trial(1, rec);
    }
    journal.append_cancel(2);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(ServeJournalTest, Crc32MatchesTheIeeeCheckVector) {
  // The canonical CRC-32 test vector: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee("", 0), 0u);
}

TEST_F(ServeJournalTest, AppendThenReplayRoundTripsEveryField) {
  write_sample_journal();
  JournalState state;
  std::string error;
  ASSERT_TRUE(replay_journal_bytes(read_bytes(), &state, &error)) << error;
  EXPECT_TRUE(state.clean);
  EXPECT_EQ(state.next_job_id, 3u);
  ASSERT_EQ(state.jobs.size(), 2u);
  const JournalJob& job1 = state.jobs[0];
  EXPECT_EQ(job1.id, 1u);
  EXPECT_EQ(job1.client, "alice");
  ASSERT_EQ(job1.lines.size(), 2u);
  EXPECT_EQ(job1.lines[0], "complete(n=64) push trials=4");
  EXPECT_FALSE(job1.cancelled);
  ASSERT_EQ(job1.trials.size(), 3u);
  EXPECT_EQ(job1.trials[1].trial, 1u);
  EXPECT_DOUBLE_EQ(job1.trials[1].rounds, 11.0);
  EXPECT_TRUE(job1.trials[1].completed);
  EXPECT_FALSE(job1.trials[2].completed);
  const JournalJob& job2 = state.jobs[1];
  EXPECT_EQ(job2.client, "bob");
  EXPECT_TRUE(job2.cancelled);
}

TEST_F(ServeJournalTest, EveryTruncationPointKeepsAValidPrefix) {
  write_sample_journal();
  const std::string full = read_bytes();
  JournalState whole;
  std::string error;
  ASSERT_TRUE(replay_journal_bytes(full, &whole, &error));
  // Cut the journal at EVERY byte boundary (the SIGKILL can land
  // anywhere): replay must never fail once the header survives, and must
  // replay a prefix of the full state — never an invented record.
  for (std::size_t cut = 16; cut < full.size(); ++cut) {
    JournalState state;
    ASSERT_TRUE(replay_journal_bytes(full.substr(0, cut), &state, &error))
        << "cut at " << cut << ": " << error;
    if (cut < full.size()) {
      std::size_t trials = 0;
      for (const JournalJob& job : state.jobs) trials += job.trials.size();
      EXPECT_LE(state.jobs.size(), whole.jobs.size());
      EXPECT_LE(trials, 3u);
      // Whatever was replayed matches the full journal's prefix exactly.
      for (std::size_t j = 0; j < state.jobs.size(); ++j) {
        EXPECT_EQ(state.jobs[j].id, whole.jobs[j].id);
        EXPECT_EQ(state.jobs[j].lines, whole.jobs[j].lines);
      }
    }
  }
  // A cut strictly inside a record is reported unclean.
  JournalState torn;
  ASSERT_TRUE(
      replay_journal_bytes(full.substr(0, full.size() - 3), &torn, &error));
  EXPECT_FALSE(torn.clean);
  EXPECT_NE(torn.warning.find("replayed the valid prefix"),
            std::string::npos);
}

TEST_F(ServeJournalTest, CrcCorruptionStopsReplayAtTheBrokenRecord) {
  write_sample_journal();
  std::string bytes = read_bytes();
  // Flip one payload byte in the LAST record: everything before survives.
  bytes[bytes.size() - 6] ^= 0x40;
  JournalState state;
  std::string error;
  ASSERT_TRUE(replay_journal_bytes(bytes, &state, &error));
  EXPECT_FALSE(state.clean);
  EXPECT_NE(state.warning.find("CRC mismatch"), std::string::npos);
  ASSERT_EQ(state.jobs.size(), 2u);
  EXPECT_FALSE(state.jobs[1].cancelled);  // the cancel record was the victim
  EXPECT_EQ(state.jobs[0].trials.size(), 3u);
}

TEST_F(ServeJournalTest, VersionMismatchAndBadMagicAreRejected) {
  write_sample_journal();
  const std::string good = read_bytes();
  std::string wrong_version = good;
  wrong_version[8] = 99;  // u32 version little-endian low byte
  JournalState state;
  std::string error;
  EXPECT_FALSE(replay_journal_bytes(wrong_version, &state, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  std::string wrong_magic = good;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(replay_journal_bytes(wrong_magic, &state, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  // Journal::open refuses them too (no silent re-initialization of a
  // foreign or future-version file).
  write_bytes(wrong_version);
  Journal journal;
  EXPECT_FALSE(journal.open(path_, &state, &error));
}

TEST_F(ServeJournalTest, OpenCompactsARecoveredJournalInPlace) {
  write_sample_journal();
  const std::string full = read_bytes();
  write_bytes(full.substr(0, full.size() - 5));  // tear the last record
  Journal journal;
  JournalState state;
  std::string error;
  ASSERT_TRUE(journal.open(path_, &state, &error)) << error;
  EXPECT_FALSE(state.clean);
  journal.close();
  // The on-disk file was rewritten to the valid prefix: replaying it now
  // is clean and equals the recovered state.
  JournalState after;
  ASSERT_TRUE(replay_journal_bytes(read_bytes(), &after, &error));
  EXPECT_TRUE(after.clean);
  EXPECT_EQ(after.jobs.size(), state.jobs.size());
  EXPECT_EQ(after.jobs[0].trials.size(), state.jobs[0].trials.size());
}

TEST_F(ServeJournalTest, CheckpointDropsCancelledJobsTrials) {
  write_sample_journal();
  Journal journal;
  JournalState state;
  std::string error;
  ASSERT_TRUE(journal.open(path_, &state, &error)) << error;
  // Give the cancelled job some trials, then compact.
  state.jobs[1].trials.push_back(TrialRecord{0, 0, 5.0, 5.0, 16.0, true});
  ASSERT_TRUE(journal.checkpoint(state, &error)) << error;
  journal.close();
  JournalState compacted;
  ASSERT_TRUE(replay_journal_bytes(read_bytes(), &compacted, &error));
  EXPECT_TRUE(compacted.clean);
  ASSERT_EQ(compacted.jobs.size(), 2u);
  EXPECT_EQ(compacted.jobs[0].trials.size(), 3u);  // live job keeps its
  EXPECT_TRUE(compacted.jobs[1].cancelled);
  EXPECT_TRUE(compacted.jobs[1].trials.empty());  // cancelled job's dropped
  EXPECT_EQ(compacted.next_job_id, 3u);
}

TEST_F(ServeJournalTest, AppendingAfterCheckpointKeepsTheJournalReadable) {
  write_sample_journal();
  Journal journal;
  JournalState state;
  std::string error;
  ASSERT_TRUE(journal.open(path_, &state, &error)) << error;
  ASSERT_TRUE(journal.checkpoint(state, &error)) << error;
  TrialRecord rec;
  rec.scenario = 0;
  rec.trial = 3;
  rec.rounds = 42.0;
  journal.append_trial(1, rec);
  journal.close();
  JournalState replayed;
  ASSERT_TRUE(replay_journal_bytes(read_bytes(), &replayed, &error));
  EXPECT_TRUE(replayed.clean);
  ASSERT_EQ(replayed.jobs[0].trials.size(), 4u);
  EXPECT_DOUBLE_EQ(replayed.jobs[0].trials[3].rounds, 42.0);
}

}  // namespace
}  // namespace rumor::serve
