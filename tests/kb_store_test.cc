// Round-trip, corruption and durability tests for the knowledge-base store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "index/nearest_center_index.h"
#include "kb/kb_service.h"
#include "kb/kb_store.h"
#include "kb/kb_updater.h"
#include "sim/engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::kb {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/streamtune_kb_" + tag + "_" +
         std::to_string(::getpid()) + ".txt";
}

std::vector<core::HistoryRecord> SampleCorpus() {
  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1));
  core::HistoryOptions opts;
  opts.samples_per_job = 5;
  return core::CollectHistory(jobs, opts);
}

KbUpdateOptions SmallOptions() {
  KbUpdateOptions o;
  o.pretrain.k = 2;
  o.pretrain.epochs = 3;
  o.pretrain.hidden_dim = 16;
  // Keep drift-triggered re-pre-training out of these persistence tests.
  o.min_new_records = 1000;
  return o;
}

/// One converged-session admission for `job`, with feedback drawn from the
/// service's own warm-up corpus (realistic embedding widths).
AdmissionRecord MakeAdmission(const KbService& service, const JobGraph& job,
                              uint64_t seed) {
  std::vector<JobGraph> jobs{job};
  core::HistoryOptions opts;
  opts.samples_per_job = 1;
  opts.seed = seed;
  AdmissionRecord rec;
  rec.record = core::CollectHistory(jobs, opts).front();
  auto snapshot = service.Snapshot();
  int c = snapshot->bundle()->AssignCluster(job);
  rec.feedback = snapshot->bundle()->WarmUpDataset(c, 6, seed);
  rec.gp_observations = {{0, 2.0, 5.5}, {1, 3.0, 7.25}};
  return rec;
}

std::unique_ptr<sim::StreamEngine> MakeEngine(const JobGraph& job,
                                              uint64_t seed) {
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = seed;
  return std::make_unique<sim::FlinkEngine>(job, model, cfg);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(KbStoreTest, RoundTripPreservesState) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  JobGraph pqp = workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 2);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 11)).ok());
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, pqp, 12)).ok());

  std::string path = TempPath("roundtrip");
  ASSERT_TRUE((*service)->Save(path).ok());
  auto back = LoadKb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const KnowledgeBase& orig = (*service)->Snapshot()->kb();
  EXPECT_EQ(back->bundle->num_clusters(), orig.bundle->num_clusters());
  EXPECT_EQ(back->bundle->records().size(), orig.bundle->records().size());
  EXPECT_EQ(back->appearance, orig.appearance);
  EXPECT_EQ(back->pretrain_corpus_size, orig.pretrain_corpus_size);
  EXPECT_EQ(back->drifted_since_pretrain, orig.drifted_since_pretrain);
  EXPECT_EQ(back->admissions_total, 2);
  ASSERT_EQ(back->jobs.size(), 2u);
  for (const auto& [name, job] : orig.jobs) {
    auto it = back->jobs.find(name);
    ASSERT_NE(it, back->jobs.end()) << name;
    EXPECT_EQ(it->second.admissions, job.admissions);
    ASSERT_EQ(it->second.feedback.size(), job.feedback.size());
    for (size_t i = 0; i < job.feedback.size(); ++i) {
      EXPECT_EQ(it->second.feedback[i].parallelism,
                job.feedback[i].parallelism);
      EXPECT_EQ(it->second.feedback[i].label, job.feedback[i].label);
      ASSERT_EQ(it->second.feedback[i].embedding.size(),
                job.feedback[i].embedding.size());
      for (size_t d = 0; d < job.feedback[i].embedding.size(); ++d) {
        EXPECT_DOUBLE_EQ(it->second.feedback[i].embedding[d],
                         job.feedback[i].embedding[d]);
      }
    }
    ASSERT_EQ(it->second.gp_observations.size(),
              job.gp_observations.size());
    for (size_t i = 0; i < job.gp_observations.size(); ++i) {
      EXPECT_EQ(it->second.gp_observations[i].op, job.gp_observations[i].op);
      EXPECT_DOUBLE_EQ(it->second.gp_observations[i].parallelism,
                       job.gp_observations[i].parallelism);
      EXPECT_DOUBLE_EQ(it->second.gp_observations[i].ability,
                       job.gp_observations[i].ability);
    }
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, ReloadedKbReproducesRecommendationsAllModels) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q3 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                           workloads::Engine::kFlink);
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q3, 21)).ok());
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 22)).ok());

  std::string path = TempPath("rec");
  ASSERT_TRUE((*service)->Save(path).ok());
  auto fresh = KbService::Open(path, SmallOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  // Every fine-tune family must recommend bit-identically from the
  // reloaded KB: same warm-start feedback, same weights, same seeds.
  for (core::FineTuneModel model :
       {core::FineTuneModel::kXgboost, core::FineTuneModel::kSvm,
        core::FineTuneModel::kNn}) {
    core::StreamTuneOptions opts;
    opts.model = model;
    std::vector<int> a, b;
    for (KbService* svc : {service->get(), fresh->get()}) {
      auto engine = MakeEngine(q3, 7);
      std::vector<int> ones(q3.num_operators(), 1);
      ASSERT_TRUE(engine->Deploy(ones).ok());
      engine->ScaleAllSources(6.0);
      auto tuner = svc->Snapshot()->NewTuner(q3.name(), opts);
      auto outcome = tuner->Tune(engine.get());
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      (svc == service->get() ? a : b) = outcome->final_parallelism;
    }
    EXPECT_EQ(a, b) << "model " << core::FineTuneModelName(model);
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, EveryBitFlipIsRejected) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 31)).ok());

  std::string path = TempPath("flip");
  ASSERT_TRUE((*service)->Save(path).ok());
  std::string content = ReadAll(path);
  ASSERT_FALSE(content.empty());

  // Sweep single-bit flips across the file (stride keeps runtime sane).
  // The length-prefixed, CRC-checksummed section format must reject every
  // one of them with an error Status — never crash, never load silently.
  int flips = 0;
  for (size_t pos = 0; pos < content.size(); pos += 53) {
    std::string corrupted = content;
    corrupted[pos] = static_cast<char>(
        corrupted[pos] ^ (1 << (pos % 8)));
    WriteAll(path, corrupted);
    auto loaded = LoadKb(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    ++flips;
  }
  EXPECT_GT(flips, 10);
  std::remove(path.c_str());
}

TEST(KbStoreTest, TruncationIsRejected) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::string path = TempPath("trunc");
  ASSERT_TRUE((*service)->Save(path).ok());
  std::string content = ReadAll(path);
  for (size_t keep : {content.size() / 4, content.size() / 2,
                      3 * content.size() / 4, content.size() - 1}) {
    WriteAll(path, content.substr(0, keep));
    EXPECT_FALSE(LoadKb(path).ok()) << "truncated to " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, SaveIsAtomicAndLeavesNoTempFile) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::string path = TempPath("atomic");
  ASSERT_TRUE((*service)->Save(path).ok());
  EXPECT_TRUE(Exists(path));
  EXPECT_FALSE(Exists(path + ".tmp"));

  // A failed save (invalid state) must not clobber the existing file.
  KnowledgeBase broken = (*service)->Snapshot()->kb();
  broken.appearance.push_back(0);  // size no longer matches cluster count
  EXPECT_FALSE(SaveKb(broken, path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_TRUE(LoadKb(path).ok());
  std::remove(path.c_str());
}

TEST(KbStoreTest, SaveToUnwritablePathFails) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Status st = (*service)->Save("/nonexistent/dir/kb.txt");
  EXPECT_FALSE(st.ok());
}

// ---- Version 2 files (with the "index" section) ---------------------------

/// Appends one framed section (header line + body) to `out`.
void AppendSection(std::string* out, const std::string& name,
                   const std::string& body) {
  *out += "section " + name + ' ' + std::to_string(body.size()) + ' ' +
          std::to_string(Crc32(body)) + '\n' + body;
}

/// The body of a version-2 "index" section in its text layout: one column
/// per corpus record, `g <nodes> <edges> <type histogram> <4 hex words>`.
/// The loader checks the section's framing and CRC but never parses the
/// body, so the signature words are stand-ins (the graph's CanonicalHash).
std::string IndexSectionBody(const KnowledgeBase& kb) {
  std::ostringstream os;
  os << "index " << kb.bundle->records().size() << '\n';
  for (const core::HistoryRecord& rec : kb.bundle->records()) {
    const index::GraphFeatures f = index::ComputeGraphFeatures(rec.graph);
    os << "g " << f.nodes << ' ' << f.edges;
    for (int t = 0; t < kNumOperatorTypes; ++t) os << ' ' << f.type_hist[t];
    os << std::hex;
    for (int w = 0; w < 4; ++w) os << ' ' << rec.graph.CanonicalHash();
    os << std::dec << '\n';
  }
  return os.str();
}

/// Rewrites a version-1 save as the version-2 layout: header `2`,
/// `sections 4`, and `index_body` appended as a fourth, checksummed section.
std::string AsVersion2(const std::string& v1, const std::string& index_body) {
  const std::string v1_header = "STKB 1\nsections 3\n";
  EXPECT_EQ(v1.compare(0, v1_header.size(), v1_header), 0);
  std::string v2 = "STKB 2\nsections 4\n" + v1.substr(v1_header.size());
  AppendSection(&v2, "index", index_body);
  return v2;
}

/// Byte offset where the index section's header line starts. The index is
/// the last section, so [IndexSectionStart, size) covers header + body.
size_t IndexSectionStart(const std::string& content) {
  size_t pos = content.find("\nsection index ");
  EXPECT_NE(pos, std::string::npos);
  return pos + 1;
}

/// Byte offset of the index section's body (just past its header newline).
size_t IndexBodyStart(const std::string& content) {
  size_t header = IndexSectionStart(content);
  size_t nl = content.find('\n', header);
  EXPECT_NE(nl, std::string::npos);
  return nl + 1;
}

std::string BundleText(const core::PretrainedBundle& bundle) {
  std::ostringstream os;
  EXPECT_TRUE(core::WriteBundleBody(os, bundle).ok());
  return os.str();
}

/// Field-by-field equality of two loaded KBs (the bundle via its
/// serialized form, which covers centers, members, weights and corpus).
void ExpectSameKb(const KnowledgeBase& a, const KnowledgeBase& b) {
  EXPECT_EQ(BundleText(*a.bundle), BundleText(*b.bundle));
  EXPECT_EQ(a.appearance, b.appearance);
  EXPECT_EQ(a.pretrain_corpus_size, b.pretrain_corpus_size);
  EXPECT_EQ(a.drifted_since_pretrain, b.drifted_since_pretrain);
  EXPECT_EQ(a.admissions_total, b.admissions_total);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (const auto& [name, job] : a.jobs) {
    auto it = b.jobs.find(name);
    ASSERT_NE(it, b.jobs.end()) << name;
    EXPECT_EQ(it->second.admissions, job.admissions);
    ASSERT_EQ(it->second.feedback.size(), job.feedback.size());
    for (size_t i = 0; i < job.feedback.size(); ++i) {
      EXPECT_EQ(it->second.feedback[i].parallelism,
                job.feedback[i].parallelism);
      EXPECT_EQ(it->second.feedback[i].label, job.feedback[i].label);
      EXPECT_EQ(it->second.feedback[i].embedding, job.feedback[i].embedding);
    }
    ASSERT_EQ(it->second.gp_observations.size(), job.gp_observations.size());
    for (size_t i = 0; i < job.gp_observations.size(); ++i) {
      EXPECT_EQ(it->second.gp_observations[i].op, job.gp_observations[i].op);
      EXPECT_EQ(it->second.gp_observations[i].parallelism,
                job.gp_observations[i].parallelism);
      EXPECT_EQ(it->second.gp_observations[i].ability,
                job.gp_observations[i].ability);
    }
  }
}

/// A saved KB with one admission: its version-1 bytes and the same state
/// rewritten as version 2.
struct SavedKbFiles {
  std::string v1;
  std::string v2;
};

SavedKbFiles SaveBothVersions(const char* tag) {
  SavedKbFiles files;
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return files;
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  EXPECT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 41)).ok());
  const std::string path = TempPath(tag);
  EXPECT_TRUE((*service)->Save(path).ok());
  files.v1 = ReadAll(path);
  std::remove(path.c_str());
  files.v2 =
      AsVersion2(files.v1, IndexSectionBody((*service)->Snapshot()->kb()));
  return files;
}

TEST(KbStoreTest, LegacyVersion1FileLoadsAndRebuildsIndex) {
  auto service = KbService::Build(SampleCorpus(), SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  JobGraph q5 = workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                           workloads::Engine::kFlink);
  ASSERT_TRUE((*service)->Admit(MakeAdmission(**service, q5, 41)).ok());
  std::string path = TempPath("v1compat");
  ASSERT_TRUE((*service)->Save(path).ok());

  // Saves are version 1, the three-section layout every STKB reader
  // accepts.
  const std::string content = ReadAll(path);
  const std::string v1_header = "STKB 1\nsections 3\nsection bundle ";
  EXPECT_EQ(content.compare(0, v1_header.size(), v1_header), 0);
  EXPECT_EQ(content.find("\nsection index "), std::string::npos);

  auto back = LoadKb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameKb(*back, (*service)->Snapshot()->kb());
  // The only index a KB carries, the bundle's center index, is rebuilt
  // from the loaded centers and answers like the saved bundle's.
  const core::PretrainedBundle& loaded = *back->bundle;
  const core::PretrainedBundle& saved = *(*service)->Snapshot()->bundle();
  ASSERT_EQ(loaded.center_index().size(), loaded.num_clusters());
  for (const core::HistoryRecord& rec : loaded.records()) {
    EXPECT_EQ(loaded.AssignCluster(rec.graph),
              saved.AssignCluster(rec.graph))
        << rec.graph.name();
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, Version2FileLoadsToTheSameStateAsVersion1) {
  const SavedKbFiles files = SaveBothVersions("v2compat");
  const std::string path = TempPath("v2compat");
  WriteAll(path, files.v1);
  auto v1 = LoadKb(path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  WriteAll(path, files.v2);
  auto v2 = LoadKb(path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ExpectSameKb(*v2, *v1);
  std::remove(path.c_str());
}

TEST(KbStoreTest, Version2IndexBodyIsFramedButNotParsed) {
  const SavedKbFiles files = SaveBothVersions("v2opaque");
  const std::string path = TempPath("v2opaque");
  WriteAll(path, files.v1);
  auto v1 = LoadKb(path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  // Any index body with a correct length and CRC loads, and the state is
  // the version-1 state: nothing is derived from the index.
  for (const std::string& body :
       {std::string(), std::string("index 0\n"),
        std::string("not an index at all\n")}) {
    WriteAll(path, AsVersion2(files.v1, body));
    auto loaded = LoadKb(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameKb(*loaded, *v1);
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, IndexSectionBitFlipIsRejected) {
  const std::string content = SaveBothVersions("idxflip").v2;
  const std::string path = TempPath("idxflip");

  // Dense sweep over the index section only (header + body).
  int flips = 0;
  for (size_t pos = IndexSectionStart(content); pos < content.size();
       pos += 7) {
    std::string corrupted = content;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << (pos % 8)));
    WriteAll(path, corrupted);
    EXPECT_FALSE(LoadKb(path).ok())
        << "index-section bit flip at byte " << pos << " loaded";
    ++flips;
  }
  EXPECT_GT(flips, 10);
  std::remove(path.c_str());
}

TEST(KbStoreTest, IndexSectionTruncationIsRejected) {
  const std::string content = SaveBothVersions("idxtrunc").v2;
  const std::string path = TempPath("idxtrunc");
  const size_t header = IndexSectionStart(content);
  const size_t body = IndexBodyStart(content);
  for (size_t keep : {header, body, body + (content.size() - body) / 2,
                      content.size() - 1}) {
    WriteAll(path, content.substr(0, keep));
    EXPECT_FALSE(LoadKb(path).ok())
        << "file truncated inside the index section at " << keep << " loaded";
  }
  std::remove(path.c_str());
}

TEST(KbStoreTest, LoadRejectsMissingAndForeignFiles) {
  EXPECT_FALSE(LoadKb("/nonexistent/dir/kb.txt").ok());
  std::string path = TempPath("foreign");
  WriteAll(path, "STHISTORY 1\ncount 0\n");
  EXPECT_FALSE(LoadKb(path).ok());
  WriteAll(path, "STKB 99\nsections 3\n");
  EXPECT_FALSE(LoadKb(path).ok());
  std::remove(path.c_str());
}

// ---- Seeded mutation fuzzer ------------------------------------------------
//
// Mutants of a version-1 and a version-2 save must either fail to load with
// an error Status or load a KB that passes ValidateKb; an abort or a
// sanitizer report (the ASan/UBSan shard runs this) fails the test. Boundary
// numbers in section lengths check that no buffer is sized from a length
// the file cannot back. Raw mutations mostly
// exercise the framing (header, section headers, lengths, CRCs); re-sealed
// mutations rewrite a stats or jobs body and fix its length and CRC, so the
// body parsers see the damage too.

struct Section {
  size_t header = 0;  ///< offset of the "section ..." line
  size_t body = 0;    ///< offset of the body
  size_t end = 0;     ///< one past the body
  std::string name;
};

/// The section layout of an STKB file, up to the first section whose
/// header or length does not parse.
std::vector<Section> Sections(const std::string& content) {
  std::vector<Section> out;
  size_t pos = content.find("\nsection ");
  while (pos != std::string::npos) {
    Section s;
    s.header = pos + 1;
    const size_t nl = content.find('\n', s.header);
    if (nl == std::string::npos) break;
    std::istringstream line(content.substr(s.header, nl - s.header));
    std::string word;
    long long bytes = -1;
    line >> word >> s.name >> bytes;
    s.body = nl + 1;
    if (bytes < 0 || static_cast<size_t>(bytes) > content.size() - s.body) {
      break;
    }
    s.end = s.body + static_cast<size_t>(bytes);
    out.push_back(s);
    // s.end - 1 >= nl > pos, so the scan always moves forward.
    pos = content.find("\nsection ", s.end - 1);
  }
  return out;
}

/// Bytes a mutation writes: mostly ones the parsers treat specially.
char InterestingByte(Rng& rng) {
  static const char kBytes[] = "0123456789 \n-+.eE\t";
  if (rng.UniformInt(0, 3) == 0) {
    return static_cast<char>(rng.UniformInt(0, 255));
  }
  return kBytes[rng.UniformInt(0, static_cast<int>(sizeof(kBytes)) - 2)];
}

/// Numbers a mutation writes over a decimal token: boundaries of every
/// range check in the loader, plus values that overflow them.
const char* InterestingNumber(Rng& rng) {
  static const char* kNumbers[] = {
      "0",  "1",          "2",          "3",
      "4",  "-1",         "1000",       "1000001",
      "99", "4294967295", "4294967296", "9223372036854775807",
      "99999999999999999999"};
  return kNumbers[rng.UniformInt(
      0, static_cast<int>(sizeof(kNumbers) / sizeof(kNumbers[0])) - 1)];
}

/// Replaces the decimal token around `pos` (if any) with `number`.
void OverwriteNumberAt(std::string* s, size_t pos, const char* number) {
  auto is_digit = [&](size_t i) {
    return i < s->size() && (std::isdigit(static_cast<unsigned char>(
                                 (*s)[i])) ||
                             (*s)[i] == '-');
  };
  if (!is_digit(pos)) return;
  size_t begin = pos;
  while (begin > 0 && is_digit(begin - 1)) --begin;
  size_t end = pos;
  while (is_digit(end)) ++end;
  s->replace(begin, end - begin, number);
}

/// A byte offset to mutate. The bundle body is most of a file and a CRC
/// mismatch rejects any damage to it, so two picks in three land in the
/// framing instead: the file header or a section header line, or just past
/// one.
size_t PickPosition(const std::string& content, Rng& rng) {
  const std::vector<Section> sections = Sections(content);
  if (rng.UniformInt(0, 2) == 0 || sections.empty()) {
    return static_cast<size_t>(rng.NextU64() % content.size());
  }
  const int pick = rng.UniformInt(0, static_cast<int>(sections.size()));
  const size_t begin = pick == 0 ? 0 : sections[pick - 1].header;
  const size_t end = pick == 0 ? sections[0].header : sections[pick - 1].body;
  const size_t span = end - begin + 8;
  return std::min(content.size() - 1,
                  begin + static_cast<size_t>(rng.NextU64() % span));
}

/// One raw mutation of `content`; `donor` supplies spliced header lines.
void MutateRaw(std::string* content, const std::string& donor, Rng& rng) {
  if (content->empty()) {
    content->push_back(InterestingByte(rng));
    return;
  }
  const size_t pos = PickPosition(*content, rng);
  switch (rng.UniformInt(0, 5)) {
    case 0:  // bit flip
      (*content)[pos] =
          static_cast<char>((*content)[pos] ^ (1 << rng.UniformInt(0, 7)));
      break;
    case 1:  // overwrite
      (*content)[pos] = InterestingByte(rng);
      break;
    case 2: {  // insert
      const int n = rng.UniformInt(1, 8);
      for (int i = 0; i < n; ++i) {
        content->insert(content->begin() + pos, InterestingByte(rng));
      }
      break;
    }
    case 3:  // delete
      content->erase(pos, static_cast<size_t>(rng.UniformInt(1, 16)));
      break;
    case 4: {  // section-header splice: a header line from `donor`
      const std::vector<Section> into = Sections(*content);
      const std::vector<Section> from = Sections(donor);
      if (into.empty() || from.empty()) break;
      const Section& dst = into[rng.UniformInt(
          0, static_cast<int>(into.size()) - 1)];
      const Section& src = from[rng.UniformInt(
          0, static_cast<int>(from.size()) - 1)];
      content->replace(dst.header, dst.body - dst.header,
                       donor.substr(src.header, src.body - src.header));
      break;
    }
    default: {  // boundary number over a header-area token
      const size_t head =
          std::min(content->size(), static_cast<size_t>(40));
      size_t at = static_cast<size_t>(rng.NextU64() % head);
      const std::vector<Section> sections = Sections(*content);
      if (!sections.empty() && rng.UniformInt(0, 1) == 0) {
        const Section& s = sections[rng.UniformInt(
            0, static_cast<int>(sections.size()) - 1)];
        at = s.header + static_cast<size_t>(
                            rng.NextU64() % (s.body - s.header));
      }
      OverwriteNumberAt(content, at, InterestingNumber(rng));
      break;
    }
  }
}

/// Mutates the body of the stats or jobs section, then rewrites that
/// section's header with the new length and CRC.
void MutateResealed(std::string* content, Rng& rng) {
  const std::vector<Section> sections = Sections(*content);
  std::vector<Section> small;
  for (const Section& s : sections) {
    if (s.name == "stats" || s.name == "jobs") small.push_back(s);
  }
  if (small.empty()) return;
  const Section& s =
      small[rng.UniformInt(0, static_cast<int>(small.size()) - 1)];
  std::string body = content->substr(s.body, s.end - s.body);
  const int edits = rng.UniformInt(1, 3);
  for (int e = 0; e < edits && !body.empty(); ++e) {
    const size_t pos = static_cast<size_t>(rng.NextU64() % body.size());
    switch (rng.UniformInt(0, 3)) {
      case 0:
        body[pos] = InterestingByte(rng);
        break;
      case 1:
        body.insert(body.begin() + pos, InterestingByte(rng));
        break;
      case 2:
        body.erase(pos, static_cast<size_t>(rng.UniformInt(1, 8)));
        break;
      default:
        OverwriteNumberAt(&body, pos, InterestingNumber(rng));
        break;
    }
  }
  std::string resealed;
  AppendSection(&resealed, s.name, body);
  content->replace(s.header, s.end - s.header, resealed);
}

TEST(KbStoreFuzzTest, SeededMutantsFailCleanlyOrLoadValidKb) {
  const SavedKbFiles files = SaveBothVersions("fuzzbase");
  ASSERT_FALSE(files.v1.empty());
  const std::string path = TempPath("fuzz");
  constexpr int kMutantsPerFile = 500;
  Rng rng(20261020);
  int loaded = 0;
  int rejected = 0;
  for (const std::string* base : {&files.v1, &files.v2}) {
    const std::string& donor = base == &files.v1 ? files.v2 : files.v1;
    for (int m = 0; m < kMutantsPerFile; ++m) {
      std::string mutant = *base;
      if (rng.UniformInt(0, 3) == 0) {
        MutateResealed(&mutant, rng);
      } else {
        const int stacked = rng.UniformInt(1, 3);
        for (int k = 0; k < stacked; ++k) MutateRaw(&mutant, donor, rng);
      }
      WriteAll(path, mutant);
      auto kb = LoadKb(path);
      if (kb.ok()) {
        EXPECT_TRUE(ValidateKb(*kb).ok())
            << (base == &files.v1 ? "v1" : "v2") << " mutant " << m;
        ++loaded;
      } else {
        EXPECT_FALSE(kb.status().ToString().empty());
        ++rejected;
      }
    }
  }
  // Both outcomes occur: the sweep reaches the body parsers, and most
  // damage is caught.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, loaded);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamtune::kb
