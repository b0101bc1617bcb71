#include "kb/kb_store.h"

#include <fstream>
#include <sstream>

#include "common/crc32.h"

namespace streamtune::kb {

namespace {

constexpr const char* kKbMagic = "STKB";
// Version 1 holds the first three sections. Version 2 files, written by
// older builds, append "index"; it is framed and checksummed like the
// others, and its body is discarded on load.
constexpr int kKbVersion = 1;
constexpr int kIndexedKbVersion = 2;

// Fixed section order; a loaded file must contain exactly the first
// kNumSections (version 1) or all of them (version 2).
constexpr const char* kSectionNames[] = {"bundle", "stats", "jobs", "index"};
constexpr int kNumSections = 3;

using core::io::DoubleToken;
using core::io::ExpectToken;
using core::io::IntToken;
using core::io::Token;

Status WriteStatsBody(std::ostream& os, const KnowledgeBase& kb) {
  os << "appearance " << kb.appearance.size();
  for (long long a : kb.appearance) os << ' ' << a;
  os << '\n';
  os << "pretrain_corpus_size " << kb.pretrain_corpus_size << '\n';
  os << "drifted " << kb.drifted_since_pretrain << '\n';
  os << "admissions_total " << kb.admissions_total << '\n';
  return Status::OK();
}

Status ReadStatsBody(std::istream& is, KnowledgeBase* kb) {
  ST_RETURN_NOT_OK(ExpectToken(is, "appearance").status());
  ST_ASSIGN_OR_RETURN(long long k, IntToken(is));
  if (k < 0 || k > 1000) {
    return Status::InvalidArgument("implausible appearance count");
  }
  kb->appearance.clear();
  for (long long i = 0; i < k; ++i) {
    ST_ASSIGN_OR_RETURN(long long a, IntToken(is));
    kb->appearance.push_back(a);
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "pretrain_corpus_size").status());
  ST_ASSIGN_OR_RETURN(kb->pretrain_corpus_size, IntToken(is));
  ST_RETURN_NOT_OK(ExpectToken(is, "drifted").status());
  ST_ASSIGN_OR_RETURN(kb->drifted_since_pretrain, IntToken(is));
  ST_RETURN_NOT_OK(ExpectToken(is, "admissions_total").status());
  ST_ASSIGN_OR_RETURN(kb->admissions_total, IntToken(is));
  return Status::OK();
}

Status WriteJobsBody(std::ostream& os, const KnowledgeBase& kb) {
  os.precision(17);
  os << "jobs " << kb.jobs.size() << '\n';
  for (const auto& [name, job] : kb.jobs) {
    os << "job " << name << " admissions " << job.admissions << " feedback "
       << job.feedback.size() << " gp " << job.gp_observations.size()
       << '\n';
    for (const ml::LabeledSample& s : job.feedback) {
      os << "f " << s.parallelism << ' ' << s.label << ' '
         << s.embedding.size();
      for (double v : s.embedding) os << ' ' << v;
      os << '\n';
    }
    for (const GpObservation& o : job.gp_observations) {
      os << "o " << o.op << ' ' << o.parallelism << ' ' << o.ability << '\n';
    }
  }
  return Status::OK();
}

Status ReadJobsBody(std::istream& is, KnowledgeBase* kb) {
  ST_RETURN_NOT_OK(ExpectToken(is, "jobs").status());
  ST_ASSIGN_OR_RETURN(long long n, IntToken(is));
  if (n < 0 || n > 1000000) {
    return Status::InvalidArgument("implausible job count");
  }
  kb->jobs.clear();
  for (long long j = 0; j < n; ++j) {
    ST_RETURN_NOT_OK(ExpectToken(is, "job").status());
    ST_ASSIGN_OR_RETURN(std::string name, Token(is));
    JobKnowledge job;
    ST_RETURN_NOT_OK(ExpectToken(is, "admissions").status());
    ST_ASSIGN_OR_RETURN(job.admissions, IntToken(is));
    ST_RETURN_NOT_OK(ExpectToken(is, "feedback").status());
    ST_ASSIGN_OR_RETURN(long long m, IntToken(is));
    ST_RETURN_NOT_OK(ExpectToken(is, "gp").status());
    ST_ASSIGN_OR_RETURN(long long g, IntToken(is));
    if (m < 0 || m > 10000000 || g < 0 || g > 10000000) {
      return Status::InvalidArgument("implausible per-job payload size");
    }
    for (long long i = 0; i < m; ++i) {
      ST_RETURN_NOT_OK(ExpectToken(is, "f").status());
      ml::LabeledSample s;
      ST_ASSIGN_OR_RETURN(long long p, IntToken(is));
      ST_ASSIGN_OR_RETURN(long long label, IntToken(is));
      if (label != 0 && label != 1) {
        return Status::InvalidArgument("feedback label out of range");
      }
      ST_ASSIGN_OR_RETURN(long long dim, IntToken(is));
      if (dim < 0 || dim > 100000) {
        return Status::InvalidArgument("implausible embedding width");
      }
      s.parallelism = static_cast<int>(p);
      s.label = static_cast<int>(label);
      s.embedding.reserve(dim);
      for (long long d = 0; d < dim; ++d) {
        ST_ASSIGN_OR_RETURN(double v, DoubleToken(is));
        s.embedding.push_back(v);
      }
      job.feedback.push_back(std::move(s));
    }
    for (long long i = 0; i < g; ++i) {
      ST_RETURN_NOT_OK(ExpectToken(is, "o").status());
      GpObservation o;
      ST_ASSIGN_OR_RETURN(long long op, IntToken(is));
      ST_ASSIGN_OR_RETURN(o.parallelism, DoubleToken(is));
      ST_ASSIGN_OR_RETURN(o.ability, DoubleToken(is));
      o.op = static_cast<int>(op);
      job.gp_observations.push_back(o);
    }
    if (!kb->jobs.emplace(std::move(name), std::move(job)).second) {
      return Status::InvalidArgument("duplicate job entry");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateKb(const KnowledgeBase& kb) {
  if (!kb.bundle) return Status::InvalidArgument("KB has no bundle");
  if (static_cast<int>(kb.appearance.size()) != kb.bundle->num_clusters()) {
    return Status::InvalidArgument(
        "appearance count does not match cluster count");
  }
  for (long long a : kb.appearance) {
    if (a < 0) return Status::InvalidArgument("negative appearance count");
  }
  const long long corpus =
      static_cast<long long>(kb.bundle->records().size());
  if (kb.pretrain_corpus_size < 0 || kb.pretrain_corpus_size > corpus) {
    return Status::InvalidArgument("pretrain corpus size out of range");
  }
  if (kb.drifted_since_pretrain < 0 || kb.admissions_total < 0) {
    return Status::InvalidArgument("negative admission counter");
  }
  for (const auto& [name, job] : kb.jobs) {
    if (name.empty()) return Status::InvalidArgument("empty job name");
    if (job.admissions < 0) {
      return Status::InvalidArgument("negative per-job admission count");
    }
  }
  return Status::OK();
}

void WarmBundleGraphs(const core::PretrainedBundle& bundle) {
  for (int c = 0; c < bundle.num_clusters(); ++c) {
    bundle.cluster(c).center.WarmAdjacency();
  }
  for (const core::HistoryRecord& rec : bundle.records()) {
    rec.graph.WarmAdjacency();
  }
}

Status SaveKb(const KnowledgeBase& kb, const std::string& path) {
  ST_RETURN_NOT_OK(ValidateKb(kb));

  std::string bodies[kNumSections];
  for (int s = 0; s < kNumSections; ++s) {
    std::ostringstream body;
    const std::string name = kSectionNames[s];
    if (name == "bundle") {
      ST_RETURN_NOT_OK(core::WriteBundleBody(body, *kb.bundle));
    } else if (name == "stats") {
      ST_RETURN_NOT_OK(WriteStatsBody(body, kb));
    } else {
      ST_RETURN_NOT_OK(WriteJobsBody(body, kb));
    }
    bodies[s] = body.str();
  }

  core::CheckedFileWriter writer(path);
  std::ostream& os = writer.stream();
  os << kKbMagic << ' ' << kKbVersion << '\n';
  os << "sections " << kNumSections << '\n';
  for (int s = 0; s < kNumSections; ++s) {
    os << "section " << kSectionNames[s] << ' ' << bodies[s].size() << ' '
       << Crc32(bodies[s]) << '\n';
    os << bodies[s];
  }
  return writer.Commit();
}

Result<KnowledgeBase> LoadKb(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  const long long file_bytes = static_cast<long long>(is.tellg());
  is.seekg(0);
  ST_RETURN_NOT_OK(ExpectToken(is, kKbMagic).status());
  ST_ASSIGN_OR_RETURN(long long version, IntToken(is));
  if (version != kKbVersion && version != kIndexedKbVersion) {
    return Status::InvalidArgument("unsupported KB version " +
                                   std::to_string(version));
  }
  const int num_sections =
      version == kIndexedKbVersion ? kNumSections + 1 : kNumSections;
  ST_RETURN_NOT_OK(ExpectToken(is, "sections").status());
  ST_ASSIGN_OR_RETURN(long long n, IntToken(is));
  if (n != num_sections) {
    return Status::InvalidArgument("unexpected section count");
  }

  KnowledgeBase kb;
  for (int s = 0; s < num_sections; ++s) {
    ST_RETURN_NOT_OK(ExpectToken(is, "section").status());
    ST_RETURN_NOT_OK(ExpectToken(is, kSectionNames[s]).status());
    ST_ASSIGN_OR_RETURN(long long bytes, IntToken(is));
    ST_ASSIGN_OR_RETURN(long long crc, IntToken(is));
    if (bytes < 0 || bytes > (1LL << 32) || crc < 0 || crc > 0xFFFFFFFFLL) {
      return Status::InvalidArgument("implausible section header");
    }
    // The header line ends in exactly one newline; the body follows byte
    // for byte (an exact-length read, so truncation is always detected).
    int sep = is.get();
    if (sep != '\n') {
      return Status::InvalidArgument("malformed section separator");
    }
    // A length past the end of the file is a truncation; checking it
    // first keeps a corrupted length from sizing a huge buffer.
    if (bytes > file_bytes - static_cast<long long>(is.tellg())) {
      return Status::InvalidArgument("truncated section '" +
                                     std::string(kSectionNames[s]) + "'");
    }
    std::string body(static_cast<size_t>(bytes), '\0');
    is.read(body.data(), bytes);
    if (is.gcount() != bytes) {
      return Status::InvalidArgument("truncated section '" +
                                     std::string(kSectionNames[s]) + "'");
    }
    if (Crc32(body) != static_cast<uint32_t>(crc)) {
      return Status::InvalidArgument("checksum mismatch in section '" +
                                     std::string(kSectionNames[s]) + "'");
    }
    std::istringstream body_is(body);
    const std::string name = kSectionNames[s];
    if (name == "bundle") {
      ST_ASSIGN_OR_RETURN(core::PretrainedBundle bundle,
                          core::ReadBundleBody(body_is));
      kb.bundle =
          std::make_shared<const core::PretrainedBundle>(std::move(bundle));
    } else if (name == "stats") {
      ST_RETURN_NOT_OK(ReadStatsBody(body_is, &kb));
    } else if (name == "jobs") {
      ST_RETURN_NOT_OK(ReadJobsBody(body_is, &kb));
    }
    // A version-2 "index" body is intact (length + CRC) but unused.
  }
  ST_RETURN_NOT_OK(ValidateKb(kb));
  WarmBundleGraphs(*kb.bundle);
  return kb;
}

}  // namespace streamtune::kb
