//===- perfbench/perfbench.cpp - The repo benchmark harness ---------------===//
//
// Part of the PSketch project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload (perfbench/README.md) as a closed loop with
/// one client.  A run is a sequence of instances, each derived from the
/// workload seed: set up the problems (parse, type check, generate data,
/// score the target), then run one synthesis job through `Session`.
/// Instances continue until the time budget is spent, and every metric
/// is printed by name and unit.  Every problem run is checked: its best
/// log-likelihood must equal an independent re-score of the best program
/// (lower + compile + evaluate from scratch), bit for bit, and a repeated
/// run of an instance must reproduce it exactly.
///
///   perfbench --workload table1-suite --seed 1 --seconds 40 --trace 0
///
/// With --trace 0 the metrics are the end-to-end ones.  With --trace 1
/// the run is the traced run: spans around every call this file makes
/// into a layer (kept in memory, written to --out-dir at the end), the
/// program's StageTimers, the SynthesisStats counters, and a replay of
/// a seeded proposal stream through the public layer functions, each
/// call timed.
///
//===----------------------------------------------------------------------===//

#include "analysis/CandidateAnalyzer.h"
#include "api/Session.h"
#include "interp/Interp.h"
#include "likelihood/ColumnarDataset.h"
#include "likelihood/Likelihood.h"
#include "parse/Parser.h"
#include "sem/Lower.h"
#include "sem/TypeCheck.h"
#include "suite/Benchmarks.h"
#include "support/Rng.h"
#include "support/Simd.h"
#include "synth/Checkpoint.h"
#include "synth/Generator.h"
#include "synth/Mutate.h"
#include "synth/Splice.h"
#include "synth/Synthesizer.h"

#include <malloc.h>
#include <sched.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

using namespace psketch;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

/// Mean of \p V without its highest and lowest fifth: robust to a
/// burst of host noise, and more efficient than the median at averaging
/// the walk-to-walk variation of instances.
double trimmedMean(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t Cut = V.size() / 5;
  double S = 0;
  for (size_t I = Cut; I + Cut < V.size(); ++I)
    S += V[I];
  return V.size() > 2 * Cut ? S / double(V.size() - 2 * Cut) : 0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// splitmix64 finalizer over (seed, stream): the workload seed derives
/// every data and synthesis seed through this.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z =
      Seed * 0x9E3779B97F4A7C15ull + (Stream + 1) * 0xD1B54A32D192ED03ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return (Z ^ (Z >> 31)) & 0x7fffffffull;
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Spans: recorded around every call into a layer, kept in memory and
// written once at the end.  Single-threaded: only this file's own calls
// are spanned, never the program's worker threads.
//===----------------------------------------------------------------------===//

struct Span {
  uint32_t Id = 0, Parent = 0, Root = 0;
  const char *Name = "";
  int64_t StartNs = 0, EndNs = 0;
};

class Tracer {
public:
  bool On = false;
  std::vector<Span> Spans;

  uint32_t open(const char *Name) {
    if (!On)
      return 0;
    Span S;
    S.Id = uint32_t(Spans.size() + 1);
    S.Parent = Stack.empty() ? 0 : Stack.back();
    S.Root = Stack.empty() ? S.Id : Spans[Stack.front() - 1].Id;
    S.Name = Name;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Stack.push_back(S.Id);
    return S.Id;
  }

  void close(uint32_t Id) {
    if (!Id)
      return;
    Spans[Id - 1].EndNs = nowNs();
    Stack.pop_back();
  }

  /// Self time per span name: duration minus the part its children
  /// cover (children nest strictly, so their durations subtract).
  std::map<std::string, double> selfSeconds() const {
    std::vector<int64_t> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent)
        Child[S.Parent - 1] += S.EndNs - S.StartNs;
    std::map<std::string, double> Self;
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[Spans[I].Name] +=
          double(Spans[I].EndNs - Spans[I].StartNs - Child[I]) * 1e-9;
    return Self;
  }

private:
  std::vector<uint32_t> Stack;
};

Tracer TheTracer;

/// Times one layer call: records a span when tracing is on and adds the
/// duration to \p Acc when given.
class Timed {
public:
  explicit Timed(const char *Name, double *Acc = nullptr)
      : Id(TheTracer.open(Name)), Acc(Acc), T0(Clock::now()) {}
  ~Timed() {
    if (Acc)
      *Acc += secondsSince(T0);
    TheTracer.close(Id);
  }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

private:
  uint32_t Id;
  double *Acc;
  Clock::time_point T0;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One synthesis problem before set-up: sources, inputs, dataset shape
/// and the run's configuration, all seeds already derived.
struct ProblemSpec {
  std::string Name;
  std::string TargetSource;
  std::string SketchSource;
  InputBindings Inputs;
  size_t Rows = 0;
  uint64_t DataSeed = 0;
  SynthesisConfig Config;
};

struct WorkloadDef {
  std::vector<ProblemSpec> Specs;
  /// Proposals the traced run replays per problem.
  unsigned ReplayProposals = 40;
};

/// Both workloads run one synthesis job at a time on one thread; the
/// traced run's scaling probe runs the same job on two.
constexpr unsigned WorkloadThreads = 1;

/// Iterations per chain in both workloads (each benchmark keeps its own
/// chain count); the suite's own budgets run 2,500-12,000.
constexpr unsigned IterationCap = 600;

/// Progress-callback cadence (iterations) at which time to target is
/// stamped, and the checkpoint cadence of the traced run's probe.
constexpr unsigned ProgressEvery = 10;
constexpr unsigned ProbeCheckpointEvery = 100;

/// Builds workload \p Name from instance seed \p Seed, which derives
/// every data seed and synthesis seed.  Both workloads are the 16
/// Table-1 benchmarks with their own sketches, inputs and chain counts,
/// capped at IterationCap iterations on one thread; table1-4x draws
/// datasets four times the Table-1 size.  \p Toy shrinks the cap and
/// keeps Table-1 sizes, for the smoke test, on the same code path.
bool makeWorkload(const std::string &Name, uint64_t Seed, bool Toy,
                  WorkloadDef &W, std::string &Err) {
  unsigned RowScale;
  if (Name == "table1-suite") {
    RowScale = 1;
  } else if (Name == "table1-4x") {
    RowScale = Toy ? 1 : 4;
  } else {
    Err = "unknown workload '" + Name + "'";
    return false;
  }
  uint64_t Stream = 0;
  for (const Benchmark &B : allBenchmarks()) {
    ProblemSpec S;
    S.Name = B.Name;
    S.TargetSource = B.TargetSource;
    S.SketchSource = B.SketchSource;
    S.Inputs = B.MakeInputs();
    S.Rows = size_t(B.DatasetSize) * RowScale;
    S.DataSeed = deriveSeed(Seed, Stream++);
    S.Config = B.Synth;
    S.Config.Seed = deriveSeed(Seed, Stream++);
    S.Config.Iterations =
        std::min(S.Config.Iterations, Toy ? 20u : IterationCap);
    W.Specs.push_back(std::move(S));
  }
  W.ReplayProposals = Toy ? 5 : 40;
  return true;
}

//===----------------------------------------------------------------------===//
// Set-up: parse, type check, lower the target, generate data, score the
// target.  The same steps as suite/Prepare's prepareBenchmark, called
// one layer at a time so each gets its own span.
//===----------------------------------------------------------------------===//

struct Problem {
  const ProblemSpec *Spec = nullptr;
  std::unique_ptr<Program> Target;
  std::unique_ptr<Program> Sketch;
  std::unique_ptr<LoweredProgram> TargetLowered;
  Dataset Data;
  double TargetLL = 0;
};

struct SetupTimes {
  double Parse = 0, TypeCheck = 0, Lower = 0, DataGen = 0, TargetLL = 0;
  double Total = 0;
};

bool prepare(const ProblemSpec &S, Problem &P, SetupTimes &T,
             std::string &Err) {
  DiagEngine Diags;
  P.Spec = &S;
  {
    Timed Span("parse", &T.Parse);
    P.Target = parseProgramSource(S.TargetSource, Diags);
    P.Sketch = parseProgramSource(S.SketchSource, Diags);
  }
  if (!P.Target || !P.Sketch) {
    Err = S.Name + ": parse failed: " + Diags.str();
    return false;
  }
  bool Typed;
  {
    Timed Span("sem.typecheck", &T.TypeCheck);
    Typed = typeCheck(*P.Target, Diags) && typeCheck(*P.Sketch, Diags);
  }
  if (!Typed) {
    Err = S.Name + ": type check failed: " + Diags.str();
    return false;
  }
  {
    Timed Span("sem.lower", &T.Lower);
    P.TargetLowered = lowerProgram(*P.Target, S.Inputs, Diags);
  }
  if (!P.TargetLowered || !checkDefiniteAssignment(*P.TargetLowered, Diags)) {
    Err = S.Name + ": target failed to lower: " + Diags.str();
    return false;
  }
  {
    Timed Span("interp.datagen", &T.DataGen);
    Rng DataRng(S.DataSeed);
    P.Data = generateDataset(*P.TargetLowered, S.Rows, DataRng);
  }
  if (P.Data.numRows() != S.Rows) {
    Err = S.Name + ": dataset generation fell short";
    return false;
  }
  {
    Timed Span("likelihood.target_ll", &T.TargetLL);
    auto F = LikelihoodFunction::compile(*P.TargetLowered, P.Data,
                                         S.Config.Algebra);
    if (!F) {
      Err = S.Name + ": target likelihood failed to compile";
      return false;
    }
    P.TargetLL = F->logLikelihood(P.Data);
  }
  return true;
}

bool setupAll(const WorkloadDef &W, std::vector<Problem> &Out,
              SetupTimes &T, std::string &Err) {
  Timed Span("setup", &T.Total);
  std::vector<Problem> Ps(W.Specs.size());
  for (size_t I = 0; I != W.Specs.size(); ++I)
    if (!prepare(W.Specs[I], Ps[I], T, Err))
      return false;
  Out = std::move(Ps);
  return true;
}

//===----------------------------------------------------------------------===//
// Jobs: one synthesis run per problem through Session, timed from
// outside.  Time to target is stamped through the Progress callback.
//===----------------------------------------------------------------------===//

struct JobOptions {
  unsigned Threads = 1;
  bool StageTimers = false;
  std::string CheckpointPath; ///< Empty: no checkpoints.
  unsigned CheckpointEvery = 0;
};

struct ProblemRun {
  bool Ok = false;
  std::string Error;
  double BestLL = 0;
  double Wall = 0;
  double ReachSeconds = -1; ///< -1: never within 1% of the target.
  std::unique_ptr<Program> Best;
};

struct JobRun {
  double Wall = 0;
  double TimeToTarget = 0;
  unsigned Reached = 0;
  uint64_t Proposed = 0;
  SynthesisStats Stats; ///< Merged over problems.
  std::vector<ProblemRun> Problems;

  double proposalsPerSecond() const { return ratio(double(Proposed), Wall); }
};

ProblemRun runProblem(const Problem &P, const JobOptions &Opt,
                      SynthesisStats &Stats) {
  SynthesisConfig Cfg = P.Spec->Config;
  Cfg.Threads = Opt.Threads;
  Cfg.StageTimers = Opt.StageTimers;
  Cfg.CheckpointPath = Opt.CheckpointPath;
  Cfg.CheckpointEvery = Opt.CheckpointPath.empty() ? 0 : Opt.CheckpointEvery;

  // EXPERIMENTS.md's Table 1 tolerance: within 1% of the target LL.
  const double Threshold = P.TargetLL - 0.01 * std::fabs(P.TargetLL);
  std::mutex M;
  double Reach = -1; // Guarded by M.
  Clock::time_point T0;
  Cfg.ProgressEvery = ProgressEvery;
  Cfg.Progress = [&](const SynthesisConfig::ProgressUpdate &U) {
    if (U.BestLL < Threshold)
      return;
    const double E = secondsSince(T0);
    std::lock_guard<std::mutex> Lock(M);
    if (Reach < 0 || E < Reach)
      Reach = E;
  };

  Session S;
  S.sketch(*P.Sketch, P.Spec->Name)
      .data(P.Data)
      .inputs(P.Spec->Inputs)
      .configure(Cfg);
  ProblemRun R;
  T0 = Clock::now();
  Session::Outcome O;
  {
    Timed Span("api.session_run");
    O = S.run();
  }
  R.Wall = secondsSince(T0);
  R.ReachSeconds = Reach;
  if (!O.ok())
    R.Error = O.Error.Message;
  else if (!O.Result.Succeeded || !O.Result.BestProgram)
    R.Error = "no valid completion";
  else if (O.Result.Stop != StopReason::None)
    R.Error = "stopped before the iteration cap";
  else if (!O.Result.CheckpointError.empty())
    R.Error = "checkpoint: " + O.Result.CheckpointError;
  R.Ok = R.Error.empty();
  R.BestLL = O.Result.BestLogLikelihood;
  R.Best = std::move(O.Result.BestProgram);
  Stats.merge(O.Result.Stats);
  return R;
}

JobRun runJob(const std::vector<Problem> &Ps, const JobOptions &Opt) {
  Timed Span("job");
  JobRun J;
  for (const Problem &P : Ps) {
    ProblemRun R = runProblem(P, Opt, J.Stats);
    J.Wall += R.Wall;
    if (R.ReachSeconds >= 0) {
      ++J.Reached;
      J.TimeToTarget += R.ReachSeconds;
    } else {
      J.TimeToTarget += R.Wall;
    }
    J.Problems.push_back(std::move(R));
  }
  J.Proposed = J.Stats.Proposed;
  return J;
}

//===----------------------------------------------------------------------===//
// Output check
//===----------------------------------------------------------------------===//

/// Scores \p Best from scratch: lower, compile, evaluate over the
/// dataset.  The synthesizer's template and slice-factored paths are
/// bit-identical to this one (DESIGN.md §9, §14).
std::optional<double> rescore(const Problem &P, const Program &Best) {
  Timed Span("check.rescore");
  DiagEngine Diags;
  auto LP = lowerProgram(Best, P.Spec->Inputs, Diags);
  if (!LP || !checkDefiniteAssignment(*LP, Diags))
    return std::nullopt;
  auto F = LikelihoodFunction::compile(*LP, P.Data, P.Spec->Config.Algebra,
                                       nullptr, P.Spec->Config.Likelihood);
  if (!F)
    return std::nullopt;
  return F->logLikelihood(P.Data);
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Checks every problem run.  Each run must succeed and its best LL must
/// equal an independent re-score of its best program, bit for bit; a
/// problem instance that runs more than once must give a bit-identical
/// best LL and the same target verdict every time.  Each problem run is
/// one attempted operation.
class OutputCheck {
public:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Rescored = 0;
  uint64_t Repeats = 0;
  std::vector<std::string> Errors;

  /// First-run best LL and target verdict of one problem instance.
  struct Reference {
    double BestLL = 0;
    bool Reached = false;
  };
  /// Keyed by (instance, problem index).
  std::map<std::pair<unsigned, size_t>, Reference> Refs;

  void setupFailed(const std::string &Err) {
    ++Attempted;
    ++Failed;
    Errors.push_back(Err);
  }

  void check(unsigned Inst, const std::vector<Problem> &Ps, const JobRun &J) {
    for (size_t I = 0; I != J.Problems.size(); ++I)
      checkOne(Inst, I, Ps[I], J.Problems[I]);
  }

  void checkOne(unsigned Inst, size_t I, const Problem &P,
                const ProblemRun &R) {
    ++Attempted;
    if (!R.Ok)
      return fail(P, R.Error);
    auto It = Refs.find({Inst, I});
    if (It == Refs.end()) {
      std::optional<double> LL = rescore(P, *R.Best);
      ++Rescored;
      if (!LL || !sameBits(*LL, R.BestLL))
        return fail(P, "best LL " + hexDouble(R.BestLL) +
                           " differs from its re-score " +
                           (LL ? hexDouble(*LL) : std::string("(failed)")));
      Refs[{Inst, I}] = {R.BestLL, R.ReachSeconds >= 0};
      return;
    }
    ++Repeats;
    if (!sameBits(It->second.BestLL, R.BestLL))
      return fail(P, "best LL " + hexDouble(R.BestLL) + " differs from " +
                         hexDouble(It->second.BestLL) + " of the first run");
    if (It->second.Reached != (R.ReachSeconds >= 0))
      fail(P, "reached the target in one run but not in another");
  }

  bool ok() const { return Failed == 0 && Attempted > 0 && Repeats > 0; }

private:
  void fail(const Problem &P, const std::string &Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(P.Spec->Name + ": " + Why);
  }
};

//===----------------------------------------------------------------------===//
// Traced-run probes: checkpoint writes, proposal-stream replay.
//===----------------------------------------------------------------------===//

struct CheckpointProbe {
  double WriteSeconds = 0;
  uint64_t Bytes = 0;
  uint64_t Writes = 0;
};

/// Counts the renames onto \p Name that inotify queued on \p Fd: every
/// snapshot write ends in one (writeCheckpointFile).
uint64_t drainRenames(int Fd, const char *Name) {
  uint64_t N = 0;
  alignas(inotify_event) char Buf[16 * 1024];
  ssize_t Len;
  while ((Len = read(Fd, Buf, sizeof(Buf))) > 0)
    for (ssize_t Off = 0; Off < Len;) {
      inotify_event Ev;
      std::memcpy(&Ev, Buf + Off, sizeof(Ev));
      if (Ev.len && std::strcmp(Buf + Off + sizeof(Ev), Name) == 0)
        ++N;
      Off += ssize_t(sizeof(Ev) + Ev.len);
    }
  return N;
}

/// Runs every problem of instance \p Inst once with periodic
/// checkpoints, counting snapshot writes with inotify, then times
/// re-writes of each problem's final snapshot through
/// writeCheckpointFile; write time is writes x the median re-write.
CheckpointProbe probeCheckpoints(unsigned Inst, const std::vector<Problem> &Ps,
                                 const std::string &Dir, OutputCheck &Check) {
  CheckpointProbe Out;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  const std::string Path = Dir + "/probe.ckpt";
  JobOptions Opt;
  Opt.CheckpointPath = Path;
  Opt.CheckpointEvery = ProbeCheckpointEvery;
  for (size_t I = 0; I != Ps.size(); ++I) {
    fs::remove(Path, EC);
    int Fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (Fd >= 0 && inotify_add_watch(Fd, Dir.c_str(), IN_MOVED_TO) < 0) {
      close(Fd);
      Fd = -1;
    }
    SynthesisStats Stats;
    ProblemRun R = runProblem(Ps[I], Opt, Stats);
    Check.checkOne(Inst, I, Ps[I], R);
    uint64_t Writes = 0;
    if (Fd >= 0) {
      Writes = drainRenames(Fd, "probe.ckpt");
      close(Fd);
    }
    RunCheckpoint CP;
    std::string Err;
    if (!readCheckpointFile(Path, CP, Err))
      continue;
    std::vector<double> T;
    for (int Rep = 0; Rep != 5; ++Rep) {
      Timed Span("synth.checkpoint_write");
      Clock::time_point T0 = Clock::now();
      writeCheckpointFile(Dir + "/rewrite.ckpt", CP, 1, Err);
      T.push_back(secondsSince(T0));
    }
    Out.Writes += Writes;
    Out.Bytes += fs::file_size(Path, EC);
    Out.WriteSeconds += double(Writes) * median(T);
  }
  fs::remove_all(Dir, EC);
  return Out;
}

struct ReplayTimes {
  double Construct = 0, Propose = 0, Analyze = 0, Lower = 0, Compile = 0,
         Eval = 0;
  uint64_t Proposals = 0, Analyzed = 0, Lowered = 0, Compiled = 0,
           Evals = 0, Rows = 0;
};

/// Replays a seeded MH walk of \p P through the public layer functions —
/// Mutator::propose, CandidateAnalyzer::analyze, lowerProgram,
/// LikelihoodFunction::compile, LikelihoodFunction::logLikelihood over a
/// ColumnarDataset — timing each call.
void replay(const WorkloadDef &W, const Problem &P, uint64_t Seed,
            ReplayTimes &T) {
  const SynthesisConfig &Cfg = P.Spec->Config;
  std::unique_ptr<Synthesizer> Syn;
  {
    Timed Span("synth.construct", &T.Construct);
    Syn = std::make_unique<Synthesizer>(*P.Sketch, P.Spec->Inputs, P.Data,
                                        Cfg);
  }
  if (!Syn->valid() || !Syn->analyzer())
    return;
  const std::vector<HoleSignature> &Sigs = Syn->holeSignatures();
  const ColumnarDataset Cols(P.Data);

  auto Score = [&](const std::vector<ExprPtr> &C) -> std::optional<double> {
    for (size_t I = 0; I != Sigs.size(); ++I)
      if (!checkCompletion(*C[I], Sigs[I]))
        return std::nullopt;
    bool Rejected;
    {
      Timed Span("analysis.analyze", &T.Analyze);
      Rejected = Syn->analyzer()->analyze(C).Rejected;
    }
    ++T.Analyzed;
    if (Rejected)
      return std::nullopt;
    std::unique_ptr<Program> Candidate = spliceCompletions(*P.Sketch, C);
    DiagEngine Diags;
    std::unique_ptr<LoweredProgram> LP;
    bool Lowered;
    {
      Timed Span("sem.lower", &T.Lower);
      LP = lowerProgram(*Candidate, P.Spec->Inputs, Diags);
      Lowered = LP && checkDefiniteAssignment(*LP, Diags);
    }
    ++T.Lowered;
    if (!Lowered)
      return std::nullopt;
    std::optional<LikelihoodFunction> F;
    {
      Timed Span("likelihood.compile", &T.Compile);
      F = LikelihoodFunction::compile(*LP, P.Data, Cfg.Algebra, nullptr,
                                      Cfg.Likelihood);
    }
    ++T.Compiled;
    if (!F)
      return std::nullopt;
    double LL;
    {
      Timed Span("likelihood.eval", &T.Eval);
      LL = F->logLikelihood(Cols);
    }
    ++T.Evals;
    T.Rows += Cols.numRows();
    if (std::isnan(LL))
      return std::nullopt;
    return LL;
  };

  Rng R(Seed);
  std::vector<ExprPtr> Current;
  double CurrentLL = 0;
  for (unsigned Try = 0; Try != Cfg.MaxInitTries && Current.empty(); ++Try) {
    std::vector<ExprPtr> C;
    for (const HoleSignature &Sig : Sigs)
      C.push_back(ExprGenerator(Sig, Cfg.Gen, R).generate());
    if (std::optional<double> LL = Score(C)) {
      Current = std::move(C);
      CurrentLL = *LL;
    }
  }
  if (Current.empty())
    return;
  Mutator M(Sigs, Cfg.Gen, Cfg.Mut, R);
  for (unsigned I = 0; I != W.ReplayProposals; ++I) {
    std::vector<ExprPtr> Proposal;
    {
      Timed Span("synth.propose", &T.Propose);
      Proposal = M.propose(Current);
    }
    ++T.Proposals;
    std::optional<double> LL = Score(Proposal);
    if (LL && std::log(R.uniform()) < *LL - CurrentLL) {
      Current = std::move(Proposal);
      CurrentLL = *LL;
    }
  }
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += (unsigned char)C < 0x20 ? ' ' : C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct HostStamp {
  unsigned NProc = 1;
  std::string Simd;
  std::string BuildType = PERFBENCH_BUILD_TYPE;
  std::string Compiler = PERFBENCH_COMPILER;
  unsigned Threads = 1;

  std::string json() const {
    return "{\"nproc\": " + std::to_string(NProc) +
           ", \"simd\": " + jsonString(Simd) +
           ", \"build_type\": " + jsonString(BuildType) +
           ", \"compiler\": " + jsonString(Compiler) +
           ", \"threads\": " + std::to_string(Threads) + "}";
  }
};

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return unsigned(CPU_COUNT(&Set));
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? unsigned(N) : 1;
}

/// Returns freed heap pages to the kernel, then resets its peak-RSS mark
/// (VmHWM) to the current RSS, so the next peakRssMb() reads the peak of
/// what runs from now on, not of memory earlier instances left cached in
/// the allocator.  False where unsupported; peakRssMb() then reads the
/// peak over the process lifetime.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  return F && (F << "5").flush();
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

void printResult(const OutputCheck &Check, const std::vector<Metric> &Ms) {
  std::string Errs;
  for (const std::string &E : Check.Errors)
    Errs += (Errs.empty() ? "" : ", ") + jsonString(E);
  std::printf("check: {\"attempted\": %llu, \"failed\": %llu, "
              "\"rescored\": %llu, \"errors\": [%s]}\n",
              (unsigned long long)Check.Attempted,
              (unsigned long long)Check.Failed,
              (unsigned long long)Check.Rescored, Errs.c_str());
  std::string Out = "{\"correct\": ";
  Out += Check.ok() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Check.Attempted);
  Out += ", \"failed\": " + std::to_string(Check.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) +
           ": {\"value\": " + jsonNumber(Ms[I].Value) +
           ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

/// The per-problem outputs of the first \p Instances instances, which
/// perfbench/run.py compares with the values recorded in
/// perfbench/expected.json.
void printDetail(const std::string &Workload, unsigned Instances,
                 const std::vector<std::string> &Names,
                 const OutputCheck &Check) {
  std::string Out = "detail: {\"workload\": " + jsonString(Workload) +
                    ", \"instances\": [";
  for (unsigned Inst = 0; Inst != Instances; ++Inst) {
    std::string Problems;
    unsigned Reached = 0;
    for (size_t I = 0; I != Names.size(); ++I) {
      auto It = Check.Refs.find({Inst, I});
      const bool Set = It != Check.Refs.end();
      Reached += Set && It->second.Reached;
      Problems += std::string(I ? ", " : "") + jsonString(Names[I]) +
                  ": [" +
                  jsonString(Set ? hexDouble(It->second.BestLL) : "none") +
                  ", " + (Set && It->second.Reached ? "true" : "false") + "]";
    }
    Out += std::string(Inst ? ", " : "") + "{\"targets_reached\": " +
           std::to_string(Reached) + ", \"problems\": {" + Problems + "}}";
  }
  std::printf("%s]}\n", Out.c_str());
}

void writeSpans(const std::string &Path, const HostStamp &Host,
                const std::map<std::string, double> &Self) {
  std::ofstream OS(Path);
  OS << "{\"host\": " << Host.json() << ",\n\"self_s\": {";
  bool First = true;
  for (const auto &[Name, S] : Self) {
    OS << (First ? "" : ", ") << jsonString(Name) << ": " << jsonNumber(S);
    First = false;
  }
  OS << "},\n\"spans\": [\n";
  const std::vector<Span> &Spans = TheTracer.Spans;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << "{\"id\": " << S.Id << ", \"parent\": " << S.Parent
       << ", \"root\": " << S.Root << ", \"name\": " << jsonString(S.Name)
       << ", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
       << "}" << (I + 1 == Spans.size() ? "\n" : ",\n");
  }
  OS << "]}\n";
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 40;
  bool Trace = false;
  bool Toy = false;
  std::string OutDir = ".bench_build/perfbench-out";
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--size full|toy] "
               "[--out-dir DIR]\n",
               Msg);
  return 2;
}

/// Instances every run measures at least; their outputs are the ones
/// perfbench/expected.json records.
constexpr unsigned MinInstances = 3;

/// One instance of the workload: its problems, derived from the
/// instance seed, set up.  Problems point into W.Specs, so an Instance
/// is heap-allocated and never moves.
struct Instance {
  WorkloadDef W;
  std::vector<Problem> Ps;
  SetupTimes Setup;
  JobOptions Opt;
};

std::unique_ptr<Instance> makeInstance(const Options &O, unsigned Index,
                                       std::string &Err) {
  auto I = std::make_unique<Instance>();
  if (!makeWorkload(O.Workload, deriveSeed(O.Seed, Index), O.Toy, I->W, Err) ||
      !setupAll(I->W, I->Ps, I->Setup, Err))
    return nullptr;
  return I;
}

/// Stage seconds of \p J plus the attribution base, the job's wall time
/// (one thread).  Other is the base minus every timed stage (splice and
/// speculate read zero on these workloads), so the shares sum to
/// exactly 1.
struct Attribution {
  double Stage[NumStages] = {};
  double Base = 0;

  void add(const JobRun &J) {
    for (unsigned S = 0; S != NumStages; ++S)
      Stage[S] += J.Stats.Stage.seconds(psketch::Stage(S));
    Base += J.Wall;
  }
  double other() const {
    double O = Base;
    for (double S : Stage)
      O -= S;
    return O;
  }
};

void printInstance(unsigned R, const Instance &I, const JobRun &J) {
  std::printf("instance: {\"index\": %u, \"setup_s\": %s, \"wall_s\": %s, "
              "\"proposed\": %llu, \"time_to_target_s\": %s, "
              "\"targets_reached\": %u, \"scored\": %u, "
              "\"rows_scored\": %llu, \"tape_ins\": %llu, "
              "\"peak_rss_mb\": %s}\n",
              R, jsonNumber(I.Setup.Total).c_str(), jsonNumber(J.Wall).c_str(),
              (unsigned long long)J.Proposed,
              jsonNumber(J.TimeToTarget).c_str(), J.Reached, J.Stats.Scored,
              (unsigned long long)J.Stats.RowsScored,
              (unsigned long long)J.Stats.TapeFinalIns,
              jsonNumber(peakRssMb()).c_str());
}

int run(const Options &O) {
  std::string Err;
  WorkloadDef Shape;
  if (!makeWorkload(O.Workload, O.Seed, O.Toy, Shape, Err))
    return usage(Err.c_str());
  std::vector<std::string> Names;
  for (const ProblemSpec &S : Shape.Specs)
    Names.push_back(S.Name);

  HostStamp Host;
  Host.NProc = hostCpus();
  Host.Simd = simdLevelName(activeSimdLevel());
  Host.Threads = WorkloadThreads;
  std::printf("host: %s\n", Host.json().c_str());
  if (WorkloadThreads > Host.NProc) {
    std::fprintf(stderr,
                 "error: workload %s runs %u threads but this host has %u "
                 "CPUs; refusing to measure an oversubscribed run\n",
                 O.Workload.c_str(), WorkloadThreads, Host.NProc);
    return 2;
  }
  std::error_code EC;
  fs::create_directories(O.OutDir, EC);

  TheTracer.On = O.Trace;
  OutputCheck Check;
  unsigned Instances = 0;
  auto Finish = [&](const std::vector<Metric> &Ms) {
    printDetail(O.Workload, std::min(Instances, MinInstances), Names, Check);
    printResult(Check, Ms);
    return 0;
  };
  auto SetupFailed = [&] {
    Check.setupFailed(Err);
    return Finish({});
  };

  // Warm-up: instance 0 end to end, untimed, so allocator pools and page
  // mappings settle first.  Instance 0 runs again as the first measured
  // instance, which checks that a repeated run is bit-identical.
  {
    std::unique_ptr<Instance> I = makeInstance(O, 0, Err);
    if (!I)
      return SetupFailed();
    Check.check(0, I->Ps, runJob(I->Ps, I->Opt));
  }

  std::vector<SetupTimes> Setups;
  if (!O.Trace) {
    std::vector<double> Wall, Rate, TTT, Reached, Rss;
    Clock::time_point T0 = Clock::now();
    for (; Instances < MinInstances || secondsSince(T0) < O.Seconds;
         ++Instances) {
      resetPeakRss();
      std::unique_ptr<Instance> I = makeInstance(O, Instances, Err);
      if (!I)
        return SetupFailed();
      JobRun J = runJob(I->Ps, I->Opt);
      Check.check(Instances, I->Ps, J);
      printInstance(Instances, *I, J);
      Setups.push_back(I->Setup);
      Wall.push_back(J.Wall);
      Rate.push_back(J.proposalsPerSecond());
      TTT.push_back(J.TimeToTarget);
      Reached.push_back(J.Reached);
      Rss.push_back(peakRssMb());
    }
    std::vector<double> SetupTotal;
    for (const SetupTimes &T : Setups)
      SetupTotal.push_back(T.Total);
    return Finish({
        {"wall_s", trimmedMean(Wall), "s"},
        {"proposals_per_s", trimmedMean(Rate), "1/s"},
        {"setup_s", median(SetupTotal), "s"},
        {"peak_rss_mb", trimmedMean(Rss), "MB"},
        {"time_to_target_s", trimmedMean(TTT), "s"},
        {"targets_reached", mean(Reached), "count"},
    });
  }

  // Traced run.  Each instance runs untraced, then traced (StageTimers
  // on, spans on), back to back, so the overhead ratio pairs like with
  // like and host drift hits both.
  std::unique_ptr<Instance> First;
  double FirstPlainWall = 0;
  uint64_t FirstProposed = 0;
  std::vector<double> Overhead;
  SynthesisStats Sum;
  Attribution A;
  Clock::time_point T0 = Clock::now();
  for (; Instances < 1 || secondsSince(T0) < O.Seconds; ++Instances) {
    std::unique_ptr<Instance> I = makeInstance(O, Instances, Err);
    if (!I)
      return SetupFailed();
    TheTracer.On = false;
    JobRun Plain = runJob(I->Ps, I->Opt);
    TheTracer.On = true;
    Check.check(Instances, I->Ps, Plain);
    JobOptions Traced = I->Opt;
    Traced.StageTimers = true;
    JobRun T = runJob(I->Ps, Traced);
    Check.check(Instances, I->Ps, T);
    printInstance(Instances, *I, T);
    Overhead.push_back(ratio(T.Wall, Plain.Wall) - 1);
    Sum.merge(T.Stats);
    A.add(T);
    Setups.push_back(I->Setup);
    if (!First) {
      First = std::move(I);
      FirstPlainWall = Plain.Wall;
      FirstProposed = Plain.Proposed;
    }
  }
  const double N = double(Instances);
  const WorkloadDef &W = First->W;

  // Thread scaling on instance 0: the same job on two threads, when the
  // host has the CPUs for them.
  double Speedup = 0;
  if (Host.NProc >= 2) {
    JobOptions Two = First->Opt;
    Two.Threads = 2;
    TheTracer.On = false;
    JobRun J = runJob(First->Ps, Two);
    TheTracer.On = true;
    Check.check(0, First->Ps, J);
    const double Mine = ratio(double(FirstProposed), FirstPlainWall);
    Speedup = ratio(J.proposalsPerSecond(), Mine);
  }

  const CheckpointProbe CP = probeCheckpoints(
      0, First->Ps, O.OutDir + "/probe-" + O.Workload, Check);

  ReplayTimes R;
  for (size_t I = 0; I != First->Ps.size(); ++I) {
    Timed Span("replay");
    replay(W, First->Ps[I], deriveSeed(O.Seed, 1000 + I), R);
  }

  // Counters and stage seconds are per-instance means over the traced
  // jobs; fractions are ratios of the totals.
  const double Proposed = double(Sum.Proposed);
  const double GroupProbes = double(Sum.SliceGroupHits + Sum.SliceGroupMisses);
  const double SliceRows = double(Sum.SliceRowsSaved + Sum.SliceRowsEvaluated);
  auto PerInstance = [&](double V) { return V / N; };
  auto Us = [](double S, uint64_t Calls) {
    return ratio(S * 1e6, double(Calls));
  };
  auto SetupMedian = [&](double SetupTimes::*F) {
    std::vector<double> V;
    for (const SetupTimes &T : Setups)
      V.push_back(T.*F);
    return median(V);
  };
  auto StageS = [&](Stage S) { return PerInstance(A.Stage[unsigned(S)]); };
  const std::vector<Metric> Ms = {
      {"likelihood.eval_us_per_call", Us(R.Eval, R.Evals), "us"},
      {"likelihood.eval_rows_per_s", ratio(double(R.Rows), R.Eval), "1/s"},
      {"likelihood.rows_scored", PerInstance(double(Sum.RowsScored)), "count"},
      {"likelihood.compile_us_per_call", Us(R.Compile, R.Compiled), "us"},
      {"likelihood.tape_final_ins", PerInstance(double(Sum.TapeFinalIns)),
       "count"},
      {"likelihood.tape_fused", PerInstance(double(Sum.TapeFused)), "count"},
      {"likelihood.col_cache_hit_frac", Sum.colCacheHitRate(), "fraction"},
      {"likelihood.target_ll_s", SetupMedian(&SetupTimes::TargetLL), "s"},
      {"sem.lower_us_per_call", Us(R.Lower, R.Lowered), "us"},
      {"sem.typecheck_s", SetupMedian(&SetupTimes::TypeCheck), "s"},
      {"sem.lower_s", SetupMedian(&SetupTimes::Lower), "s"},
      {"parse.s", SetupMedian(&SetupTimes::Parse), "s"},
      {"interp.datagen_s", SetupMedian(&SetupTimes::DataGen), "s"},
      {"analysis.static_check_us_per_call", Us(R.Analyze, R.Analyzed), "us"},
      {"analysis.static_reject_frac",
       ratio(double(Sum.InvalidStatic), Proposed), "fraction"},
      {"synth.construct_s", R.Construct, "s"},
      {"synth.propose_us_per_call", Us(R.Propose, R.Proposals), "us"},
      {"synth.proposed", PerInstance(Proposed), "count"},
      {"synth.accept_frac", Sum.acceptanceRate(), "fraction"},
      {"synth.invalid_frac", ratio(double(Sum.Invalid), Proposed), "fraction"},
      {"synth.score_cache_hit_frac", Sum.cacheHitRate(), "fraction"},
      {"synth.slice_skip_frac", ratio(double(Sum.SliceSkip), Proposed),
       "fraction"},
      {"synth.slice_group_hit_frac",
       ratio(double(Sum.SliceGroupHits), GroupProbes), "fraction"},
      {"synth.slice_rows_saved_frac",
       ratio(double(Sum.SliceRowsSaved), SliceRows), "fraction"},
      {"synth.checkpoint_write_s", CP.WriteSeconds, "s"},
      {"synth.checkpoint_bytes", double(CP.Bytes), "bytes"},
      {"synth.checkpoint_writes", double(CP.Writes), "count"},
      {"support.threads_speedup", Speedup, "ratio"},
      {"stage.eval_batch_s", StageS(Stage::EvalBatch), "s"},
      {"stage.lower_compile_s", StageS(Stage::LowerCompile), "s"},
      {"stage.static_check_s", StageS(Stage::StaticCheck), "s"},
      {"stage.cache_probe_s", StageS(Stage::CacheProbe), "s"},
      {"stage.other_s", PerInstance(A.other()), "s"},
      {"obs.trace_overhead_frac", median(Overhead), "fraction"},
  };

  // Stage shares of the attribution base; with other they sum to 1.
  std::string Shares;
  double Total = 0;
  for (unsigned S = 0; S != NumStages; ++S) {
    Total += ratio(A.Stage[S], A.Base);
    Shares += ", " + jsonString(stageName(Stage(S))) + ": " +
              jsonNumber(ratio(A.Stage[S], A.Base));
  }
  Total += ratio(A.other(), A.Base);
  std::printf("attribution: {\"base_s\": %s%s, \"other\": %s, \"sum\": %s}\n",
              jsonNumber(PerInstance(A.Base)).c_str(), Shares.c_str(),
              jsonNumber(ratio(A.other(), A.Base)).c_str(),
              jsonNumber(Total).c_str());

  const std::map<std::string, double> Self = TheTracer.selfSeconds();
  std::string Layers;
  for (const auto &[Name, S] : Self)
    Layers += (Layers.empty() ? "" : ", ") + jsonString(Name) + ": " +
              jsonNumber(S);
  std::printf("layers_self_s: {%s}\n", Layers.c_str());
  const std::string SpanPath = O.OutDir + "/spans-" + O.Workload + "-seed" +
                               std::to_string(O.Seed) + ".json";
  writeSpans(SpanPath, Host, Self);
  std::printf("spans: %zu written to %s\n", TheTracer.Spans.size(),
              SpanPath.c_str());
  return Finish(Ms);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--size") {
      if (V != "full" && V != "toy")
        return usage("--size takes full or toy");
      O.Toy = V == "toy";
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
    if (End && *End)
      return usage(("bad number for " + A).c_str());
  }
  if (O.Workload.empty())
    return usage("--workload is required");
  return run(O);
}
