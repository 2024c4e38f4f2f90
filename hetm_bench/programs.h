// The Emerald-subset programs the benchmark's workloads run. They are copies of
// the programs bench/ uses (bench_common.h's mover, bench_dir's service,
// bench_sched's skewed / producer-consumer / convoy programs), kept here so the
// benchmark's inputs only change when the benchmark itself changes.
#ifndef HETM_BENCH_PROGRAMS_H_
#define HETM_BENCH_PROGRAMS_H_

#include <string>

namespace hetm::bench {

// The Table 1 thread: 13 local variables live across every move (nine Ints,
// one Real, one String, one Bool, plus the loop counter). `small_thread`
// selects the 4-variable variant of the table's footnoted VAX4000 row.
inline std::string MoverSource(int rounds, bool small_thread) {
  std::string vars;
  std::string sum;
  if (small_thread) {
    vars = R"(
        var v1: Int := 101
        var v2: Int := 202
        var r1: Real := 2.5
)";
    sum = "v1 + v2 + i";
  } else {
    vars = R"(
        var v1: Int := 101
        var v2: Int := 202
        var v3: Int := 303
        var v4: Int := 404
        var v5: Int := 505
        var v6: Int := 606
        var v7: Int := 707
        var v8: Int := 808
        var v9: Int := 909
        var r1: Real := 2.5
        var s1: String := "thread-payload"
        var b1: Bool := true
)";
    sum = "v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + len(s1) + i";
  }
  std::string use_real = small_thread ? "        print r1\n" : "        print r1\n        print b1\n";
  return std::string("    class Mover\n"
                     "      var pad: Int\n"
                     "      op hop(rounds: Int): Int\n") +
         vars +
         "        var i: Int := 0\n"
         "        while i < rounds do\n"
         "          move self to nodeat(1)\n"
         "          move self to nodeat(0)\n"
         "          i := i + 1\n"
         "        end\n" +
         use_real +
         "        return " + sum + "\n"
         "      end\n"
         "    end\n"
         "    main\n"
         "      var m: Ref := new Mover\n"
         "      print m.hop(" + std::to_string(rounds) + ")\n"
         "    end\n";
}

// What MoverSource(rounds, false) prints.
inline std::string MoverOutput(int rounds) {
  // 101 + 202 + ... + 909 = 4545, plus len("thread-payload") = 14, plus i.
  return "2.5\ntrue\n" + std::to_string(4545 + 14 + rounds) + "\n";
}

// The traffic generator's service: every arrival invokes Svc.poke.
inline const char* SvcSource() {
  return R"(
    class Svc
      var n: Int
      op poke(): Int
        n := n + 1
        return n
      end
    end
    main
      var x: Int := 0
      print x
    end
)";
}

// Four servers scattered over nodes 1 and 2; the main thread on node 0 calls
// them with a fixed 4:2:1:1 skew for `rounds` rounds (8 invocations per round).
inline std::string SkewedSource(int rounds) {
  return R"(
    class Server
      var n: Int
      op bump(v: Int): Int
        n := n + v
        return n
      end
    end
    main
      var a: Ref := new Server
      var b: Ref := new Server
      var c: Ref := new Server
      var d: Ref := new Server
      move a to nodeat(1)
      move b to nodeat(1)
      move c to nodeat(2)
      move d to nodeat(2)
      var i: Int := 0
      var acc: Int := 0
      while i < )" +
         std::to_string(rounds) + R"( do
        acc := acc + a.bump(1) + a.bump(1) + a.bump(1) + a.bump(1)
        acc := acc + b.bump(1) + b.bump(1)
        acc := acc + c.bump(1) + d.bump(1)
        i := i + 1
      end
      print acc
    end
)";
}

// What SkewedSource(rounds) prints: every bump returns its server's new count.
inline std::string SkewedOutput(int rounds) {
  long long acc = 0;
  long long a = 0, b = 0, c = 0, d = 0;
  for (int i = 0; i < rounds; ++i) {
    for (int k = 0; k < 4; ++k) acc += ++a;
    for (int k = 0; k < 2; ++k) acc += ++b;
    acc += ++c;
    acc += ++d;
  }
  return std::to_string(acc) + "\n";
}

// Producer/consumer through a one-slot buffer: cond-queue contention. Each
// handoff is a put+get pair with wait/signal traffic on both conditions.
inline std::string ProdConsSource(int items) {
  return R"(
    monitor class Buffer
      var slot: Int
      var full: Int
      cond notfull
      cond notempty
      op put(v: Int)
        while full == 1 do
          wait notfull
        end
        slot := v
        full := 1
        signal notempty
      end
      op get(): Int
        while full == 0 do
          wait notempty
        end
        full := 0
        signal notfull
        return slot
      end
    end
    monitor class Sink
      var sum: Int
      var count: Int
      cond donec
      op add(v: Int)
        sum := sum + v
        count := count + 1
        signal donec
      end
      op waitdone(n: Int)
        while count < n do
          wait donec
        end
      end
      op total(): Int
        return sum
      end
    end
    class Producer
      var junk: Int
      op produce(b: Ref, n: Int)
        var i: Int := 1
        while i <= n do
          b.put(i)
          i := i + 1
        end
      end
    end
    class Consumer
      var junk: Int
      op consume(b: Ref, s: Ref, n: Int)
        var i: Int := 0
        while i < n do
          var v: Int := b.get()
          s.add(v)
          i := i + 1
        end
      end
    end
    main
      var b: Ref := new Buffer
      move b to nodeat(1)
      var s: Ref := new Sink
      var p: Ref := new Producer
      var c: Ref := new Consumer
      spawn p.produce(b, )" + std::to_string(items) + R"()
      spawn c.consume(b, s, )" + std::to_string(items) + R"()
      s.waitdone()" + std::to_string(items) + R"()
      print s.total()
    end
)";
}

inline std::string ProdConsOutput(int items) {
  return std::to_string(static_cast<long long>(items) * (items + 1) / 2) + "\n";
}

// Lock convoy: four workers on node 0 repeatedly grinding inside one remote
// monitor, so an entry queue is parked in it almost continuously.
inline std::string ConvoySource(int rounds, int grind) {
  std::string r = std::to_string(rounds);
  std::string k = std::to_string(grind);
  return R"(
    monitor class Lock
      var n: Int
      var done: Int
      cond alldone
      op grind(k: Int)
        var i: Int := 0
        while i < k do
          n := n + 1
          i := i + 1
        end
        done := done + 1
        signal alldone
      end
      op waitall(t: Int)
        while done < t do
          wait alldone
        end
      end
      op value(): Int
        return n
      end
    end
    class Worker
      var junk: Int
      op grindloop(l: Ref, rounds: Int, k: Int)
        var i: Int := 0
        while i < rounds do
          l.grind(k)
          i := i + 1
        end
      end
    end
    main
      var l: Ref := new Lock
      move l to nodeat(1)
      var w1: Ref := new Worker
      var w2: Ref := new Worker
      var w3: Ref := new Worker
      var w4: Ref := new Worker
      spawn w1.grindloop(l, )" + r + ", " + k + R"()
      spawn w2.grindloop(l, )" + r + ", " + k + R"()
      spawn w3.grindloop(l, )" + r + ", " + k + R"()
      spawn w4.grindloop(l, )" + r + ", " + k + R"()
      l.waitall()" + std::to_string(4 * rounds) + R"()
      print l.value()
    end
)";
}

inline std::string ConvoyOutput(int rounds, int grind) {
  return std::to_string(4LL * rounds * grind) + "\n";
}

// bench_intranode's hot loop: straight-line arithmetic after a no-op self-move,
// so nearly every executed instruction is the loop body.
inline std::string HotLoopSource(int iters) {
  return R"(
    class Hot
      var junk: Int
      op spin(n: Int): Int
        var acc: Int := 1
        var i: Int := 0
        move self to nodeat(0)
        while i < n do
          acc := acc * 3 + i
          acc := acc - (acc / 7)
          i := i + 1
        end
        return acc
      end
    end
    main
      var h: Ref := new Hot
      print h.spin()" +
         std::to_string(iters) + R"()
    end
)";
}

}  // namespace hetm::bench

#endif  // HETM_BENCH_PROGRAMS_H_
