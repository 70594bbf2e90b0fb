package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.dict.Dictionary
import repro.fst.{Fst, FstCompiler, FstSimulator}

import scala.collection.mutable

/** Property tests (ScalaCheck) for pivot-restricted DESQ-DFS and the FST step
  * table, on random hierarchies, databases, weights and σ.
  */
class DesqDfsPropertySpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(20161212L))
    val res = Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  /** Up to 10 sequences of 1–7 leaves, each with a weight of 1–3. */
  private val weightedDb: Gen[Seq[(Array[String], Long)]] =
    Gen.choose(1, 10).flatMap(n => Gen.listOfN(n, Gen.zip(
      Gen.choose(1, 7).flatMap(len => Gen.listOfN(len, Gen.oneOf(TestGen.leaves)).map(_.toArray)),
      Gen.choose(1L, 3L))))

  test("pivot-k mining == brute force restricted to pivot k") {
    var nonEmptyPartitions = 0
    val input = Gen.zip(Gen.oneOf(TestGen.patterns.map(_._2)), TestGen.hierarchy, weightedDb, Gen.oneOf(1L, 2L, 4L))
    check(Prop.forAllNoShrink(input) { case (patex, parents, wdb, sigma) =>
      // Encode the expanded database, so item frequencies count weights.
      val (dict, expanded) = TestGen.encodeLocal(wdb.flatMap { case (t, w) => Seq.fill(w.toInt)(t) }, parents)
      val db = wdb.toIndexedSeq.map { case (t, w) => (t.map(dict.fid), w) }
      val fst = FstCompiler.compile(patex, dict)
      val maxFid = dict.maxFrequentFid(sigma)
      val brute = BruteForce.mine(expanded, fst, sigma, dict)
      (1 to dict.size).forall { k =>
        val want = brute.filter(_._1.pivot == k)
        val got = DesqDfs.mine(db, fst, dict, sigma, maxFid, Some(k))
        if (want.nonEmpty) nonEmptyPartitions += 1
        got == want
      }
    }, tests = 150)
    assert(nonEmptyPartitions > 150, "too few pivot partitions with patterns to be a test")
  }

  test("the pivot-k backward pass == its bits' definitions over the runs") {
    import FstSimulator.{End, LeadsToLabel, Live}
    var epsCells = 0
    var kCells = 0
    var seenOnlyCells = 0
    val input = Gen.zip(Gen.oneOf(TestGen.patterns.map(_._2)), TestGen.hierarchy, weightedDb, Gen.oneOf(1L, 2L, 4L))
    check(Prop.forAllNoShrink(input) { case (patex, parents, wdb, sigma) =>
      val (dict, db) = TestGen.encodeLocal(wdb.map(_._1), parents)
      val fst = FstCompiler.compile(patex, dict)
      val maxFid = dict.maxFrequentFid(sigma)
      def isEps(o: Array[Int]) = o.sameElements(Array(0))
      db.forall { t =>
        val runs = runsFrom(t, fst, dict)
        val fromStart = mutable.ArrayBuffer.empty[FstSimulator.Run]
        FstSimulator.foreachAcceptingRun(t, fst, dict)(fromStart += _)
        val uncapped = FstSimulator.pivotCells(t, fst, dict, Int.MaxValue)
        fromStart.map(_.toList.map(_.toSeq)) == runs(fst.initial).map(_.map(_.toSeq)) &&
          runs.indices.forall { c =>
            if (runs(c).exists(_.forall(isEps))) epsCells += 1
            ((uncapped(c) & Live << 1) != 0) == runs(c).nonEmpty
          } &&
          (1 to maxFid).forall { k =>
            // The runs that count for k: every set's floor is <= k. Live
            // unseen also needs k in a set; leading to a labelled step needs
            // a set that is not ε-only; a run of ε-only sets ends the prefix.
            // Unseen, leading to a labelled step is read from the Live bit.
            val cells = FstSimulator.pivotCells(t, fst, dict, k)
            cells.indices.forall { c =>
              val counted = runs(c).filter(_.forall(_(0) <= k))
              def holdsK(r: List[Array[Int]]) = r.exists(_.contains(k))
              def labelled(r: List[Array[Int]]) = r.exists(!isEps(_))
              val want =
                (if (counted.exists(holdsK)) Live else 0) |
                  (if (counted.nonEmpty) Live << 1 else 0) |
                  (if (counted.exists(labelled)) LeadsToLabel else 0) |
                  (if (runs(c).exists(_.forall(isEps))) End else 0)
              val unseenLeadsToLabel = counted.exists(r => labelled(r) && holdsK(r))
              if ((want & Live) != 0) kCells += 1
              else if ((want & LeadsToLabel) != 0) seenOnlyCells += 1
              cells(c) == want && ((cells(c) & Live) != 0) == unseenLeadsToLabel
            }
          }
      }
    }, tests = 150)
    assert(epsCells > 100 && kCells > 1000 && seenOnlyCells > 1000,
      s"too few positive cells: ε $epsCells, k $kCells, seen only $seenOnlyCells")
  }

  /** `runs(i * S + q)`: the output sets of every accepting run from `(i, q)`,
    * enumerated with `byState`, `matches` and `outputs` instead of the step table.
    */
  private def runsFrom(t: Array[Int], fst: Fst, dict: Dictionary): Array[List[List[Array[Int]]]] = {
    val s = fst.numStates
    val runs = new Array[List[List[Array[Int]]]]((t.length + 1) * s)
    for (q <- 0 until s) runs(t.length * s + q) = if (fst.isFinal(q)) List(Nil) else Nil
    for (i <- t.indices.reverse; q <- 0 until s)
      runs(i * s + q) = fst.byState(q).toList.filter(_.in.matches(t(i), dict)).flatMap { tr =>
        runs((i + 1) * s + tr.to).map(tr.out.outputs(t(i), dict) :: _)
      }
    runs
  }

  test("step table rows equal byState(q).filter(matches) with the same outputs") {
    val input = for {
      patex <- Gen.oneOf(TestGen.patterns.map(_._2))
      parents <- TestGen.hierarchy
      probes <- Gen.listOfN(20, Gen.zip(Gen.choose(0, 1 << 20), Gen.choose(1, 1 << 20)))
    } yield (patex, parents, probes)
    check(Prop.forAllNoShrink(input) { case (patex, parents, probes) =>
      val (dict, _) = TestGen.encodeLocal(Seq(TestGen.leaves.toArray), parents)
      val fst = FstCompiler.compile(patex, dict)
      probes.forall { case (qr, itemr) =>
        val q = qr % fst.numStates
        val item = 1 + itemr % dict.size
        rowMatches(fst, dict, q, item)
      }
    }, tests = 200)
  }

  private def rowMatches(fst: Fst, dict: Dictionary, q: Int, item: Int): Boolean = {
    val row = fst.steps(item, dict)
    val want = fst.byState(q).filter(_.in.matches(item, dict))
    val got = row.start(q) until row.start(q + 1)
    got.length == want.length && got.zip(want).forall { case (j, tr) =>
      row.to(j) == tr.to &&
        row.out(j).sameElements(tr.out.outputs(item, dict)) &&
        row.epsOnly(j) == tr.out.outputs(item, dict).sameElements(Array(0))
    }
  }
}
