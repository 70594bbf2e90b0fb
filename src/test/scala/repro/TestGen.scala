package repro

import org.scalacheck.Gen
import repro.core.Pattern
import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}
import repro.patex.PatEx
import repro.patex.PatEx._

import java.util.Random
import scala.collection.mutable

/** Shared test helpers: the toy hierarchy and random ones, generated pattern
  * expressions, seeded random databases, brute-force pivots, and Spark-free
  * versions of the f-list/encode pipeline and of the pivot-partitioned
  * dataflow.
  */
object TestGen {

  /** Toy hierarchy: 10 leaves l0..l9, mids m0..m2 (l8 has two parents — DAG),
    * one root `top`.
    */
  val toyParents: Map[String, Seq[String]] = Map(
    "l0" -> Seq("m0"), "l1" -> Seq("m0"), "l2" -> Seq("m0"), "l3" -> Seq("m0"),
    "l4" -> Seq("m1"), "l5" -> Seq("m1"), "l6" -> Seq("m1"),
    "l7" -> Seq("m2"), "l8" -> Seq("m2", "m1"), "l9" -> Seq("m2"),
    "m0" -> Seq("top"), "m1" -> Seq("top"), "m2" -> Seq("top")
  )

  val leaves: IndexedSeq[String] = (0 to 9).map(i => s"l$i")

  private val mids = Seq("m0", "m1", "m2")

  /** The toy hierarchy's names with random edges: each leaf has one or two
    * mids as parents, and a mid may also generalize to a lower-numbered mid.
    */
  val hierarchy: Gen[Map[String, Seq[String]]] = for {
    leafParents <- Gen.listOfN(leaves.size, Gen.choose(1, 2).flatMap(Gen.pick(_, mids)))
    m1Up <- Gen.oneOf(Seq("top"), Seq("top", "m0"))
    m2Up <- Gen.oneOf(Seq("top"), Seq("m0"), Seq("m1", "top"))
  } yield leaves.zip(leafParents.map(_.toSeq)).toMap ++
    Map("m0" -> Seq("top"), "m1" -> m1Up, "m2" -> m2Up)

  /** The toy hierarchy's names as a random forest: each leaf has one mid as
    * parent, and each mid has `top`, a lower-numbered mid or no parent.
    */
  val forest: Gen[Map[String, Seq[String]]] = for {
    leafParents <- Gen.listOfN(leaves.size, Gen.oneOf(mids))
    m0Up <- Gen.oneOf(Seq("top"), Nil)
    m1Up <- Gen.oneOf(Seq("top"), Seq("m0"), Nil)
    m2Up <- Gen.oneOf(Seq("top"), Seq("m0"), Seq("m1"), Nil)
  } yield leaves.zip(leafParents.map(Seq(_))).toMap ++
    Map("m0" -> m0Up, "m1" -> m1Up, "m2" -> m2Up)

  /** Pattern expressions of depth at most `depth` over the toy names and
    * `.`: `↑` and `=`, captures, concatenation, alternation, and `?`, `*`,
    * `+` and `{n,m}` with `m <= 2`.
    */
  def patex(depth: Int): Gen[PatEx] = {
    val leaf = Gen.oneOf(
      Gen.zip(Gen.oneOf(leaves ++ mids :+ "top"), Gen.oneOf(false, true), Gen.oneOf(false, true))
        .map((Item.apply _).tupled),
      Gen.oneOf(false, true).map(Dot(_)))
    if (depth == 0) leaf
    else {
      val sub = patex(depth - 1)
      Gen.frequency(
        2 -> leaf,
        4 -> sub.map(Capture(_)),
        3 -> Gen.choose(2, 3).flatMap(Gen.listOfN(_, sub)).map(Concat(_)),
        1 -> Gen.listOfN(2, sub).map(Alt(_)),
        2 -> Gen.zip(sub, Gen.oneOf((0, 1), (0, Int.MaxValue), (1, Int.MaxValue), (0, 2), (1, 2), (2, 2)))
          .map { case (e, (min, max)) => Repeat(e, min, max) })
    }
  }

  /** Random database over the toy leaves; skewed item choice. */
  def randomDb(seed: Long, nSeqs: Int = 30, maxLen: Int = 10): Seq[Array[String]] = {
    val r = new Random(seed)
    Seq.fill(nSeqs) {
      val len = 1 + r.nextInt(maxLen)
      Array.fill(len)(leaves((math.pow(r.nextDouble(), 1.7) * leaves.size).toInt.min(9)))
    }
  }

  /** Local (driver-side) f-list + dictionary + encoding — mirrors
    * `SeqData.encode` without Spark.
    */
  def encodeLocal(db: Seq[Array[String]],
                  parents: Map[String, Seq[String]]): (Dictionary, IndexedSeq[Array[Int]]) = {
    val closure = mutable.HashMap.empty[String, Array[String]]
    def anc(w: String): Array[String] = closure.getOrElseUpdate(w, {
      val seen = mutable.LinkedHashSet(w)
      val stack = mutable.Stack(w)
      while (stack.nonEmpty)
        for (p <- parents.getOrElse(stack.pop(), Nil)) if (seen.add(p)) stack.push(p)
      seen.toArray
    })
    val freqs = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    for (t <- db; w <- t.iterator.flatMap(anc).toSet[String]) freqs(w) += 1L
    val dict = Dictionary.build(parents, freqs.toMap)
    (dict, db.toIndexedSeq.map(_.map(dict.fid)))
  }

  /** `Drivers.minePivots` as plain collection operations: `records`, the map
    * function of one task, maps all of `db` to `(pivot, value)` records, and
    * `mine` mines each pivot's values.
    */
  def minePivotsLocally[V](db: Seq[Array[Int]])(
      records: Iterator[Array[Int]] => Iterator[(Int, V)])(
      mine: (Int, IndexedSeq[V]) => Iterator[(Pattern, Long)]): Map[Pattern, Long] =
    records(db.iterator).toIndexedSeq.groupMap(_._1)(_._2).flatMap { case (k, vs) => mine(k, vs) }

  /** The battery of pattern expressions exercised in randomized tests. */
  val patterns: Seq[(String, String)] = Seq(
    "items"        -> "(.)",
    "items-gen"    -> "(.^)",
    "bigrams"      -> "(.)(.)",
    "ngrams-gap"   -> "(.)[.{0,1}(.)]{1,2}",
    "t3-style"     -> "(.^)[.{0,2}(.^)]{1,2}",
    "t3-anchored"  -> "(m0^)[.{0,2}(m0^)]{1,3}",
    "t1-style"     -> "(.)[.*(.)]{,2}",
    "pi-ex-style"  -> ".*(m1)[(.^).*]*(m2).*",
    "const-out"    -> "(l0^=|l1)",
    "context"      -> "l0(.^)l1",
    "n4-style"     -> "(.^){2}l4",
    "alt-groups"   -> "[(l2)|(l3)](top^)"
  )

  /** Items w0..w99 without a hierarchy, `w$i` being fid `i + 1`, for sequences whose
    * candidates fill more than one chunk of 64 lanes under [[pairs100]].
    */
  lazy val d100: Dictionary = new Dictionary(Array.tabulate(100)(i => s"w$i"),
    Array.fill(100)(Array.empty[Int]), Array.tabulate(100)(i => 100L - i))

  /** Pairs of an item and one of the next two, over [[d100]]; a pair's candidates are its items. */
  val pairs100: String = "(.)[.{0,1}(.)]"

  /** A shuffle of [[d100]]'s fids: more than 64 pivots under [[pairs100]]. */
  lazy val shuffled100: Array[Int] = new scala.util.Random(64).shuffle((1 to 100).toVector).toArray

  /** [[d100]]'s fids, each of 1..64 with only items of 65..100 within two positions: every pair
    * with one of them has a larger item, so the chunk of the 64 smallest candidates holds no
    * pivot under [[pairs100]].
    */
  lazy val spaced100: Array[Int] = (1 to 64).flatMap(s => Seq(s, 65 + 2 * s % 36, 65 + (2 * s + 1) % 36)).toArray

  /** Union of pivots over `Gσπ(T)` computed the slow way — ground truth for
    * the grid DP.
    */
  def brutePivots(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Set[Int] =
    FstSimulator.candidates(t, fst, dict, maxFid).map(_.max)

  /** Each pivot's window the slow way — ground truth for the grid's lane passes. A run counts
    * for `k <= maxFid` iff every output set's smallest item (ε = 0) is `<= k` and some set
    * holds `k`. Over the accepting runs, enumerated with their states, pivot `k`'s window runs
    * from the first to the last position of a step on a counted run that is not an ε self-loop.
    * Its tail is kept whole when some prefix that has output `k` with every set's smallest item
    * `<= k` stands at `last + 1` in a final state from which no ε-only steps reach a final
    * state at the end of `t`.
    */
  def bruteWindows(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Map[Int, (Int, Int)] = {
    val n = t.length
    val rows = t.map(fst.steps(_, dict))
    def moves(i: Int, q: Int) = (rows(i).start(q) until rows(i).start(q + 1)).map(j => (rows(i).out(j), rows(i).to(j)))
    def isEps(o: Array[Int]) = o.sameElements(Array(0))
    val finishes = Array.fill(n + 1)(Set.empty[Int])
    finishes(n) = (0 until fst.numStates).filter(fst.isFinal).toSet
    for (i <- n - 1 to 0 by -1)
      finishes(i) = (0 until fst.numStates).filter(q => moves(i, q).exists(m => finishes(i + 1)(m._2))).toSet
    val windows = mutable.Map.empty[Int, (Int, Int)]
    // `steps`: (position, output set, whether the step is an ε self-loop), last step first.
    def runs(i: Int, q: Int, steps: List[(Int, Array[Int], Boolean)]): Unit =
      if (i == n) {
        if (fst.isFinal(q)) {
          val floor = steps.map(_._2.head).maxOption.getOrElse(0)
          val moving = steps.filterNot(_._3).map(_._1)
          for (k <- steps.flatMap(_._2).distinct if k != 0 && k >= floor && k <= maxFid) {
            val (f, l) = windows.getOrElse(k, (n, -1))
            windows(k) = (math.min(f, moving.min), math.max(l, moving.max))
          }
        }
      } else for ((o, to) <- moves(i, q) if finishes(i + 1)(to)) runs(i + 1, to, (i, o, to == q && isEps(o)) :: steps)
    runs(0, fst.initial, Nil)
    def epsToEnd(i: Int, q: Int): Boolean =
      if (i == n) fst.isFinal(q) else moves(i, q).exists { case (o, to) => isEps(o) && epsToEnd(i + 1, to) }
    windows.map { case (k, (first, last)) =>
      // (state, has output k) after the prefixes with every set's smallest item <= k
      var prefixes = Set((fst.initial, false))
      for (i <- 0 to last)
        prefixes = for ((q, seen) <- prefixes; (o, to) <- moves(i, q) if o(0) <= k) yield (to, seen || o.contains(k))
      val exact = last + 1 == n || prefixes.forall { case (q, seen) => !seen || !fst.isFinal(q) || epsToEnd(last + 1, q) }
      k -> (first, if (exact) last else n - 1)
    }.toMap
  }
}
