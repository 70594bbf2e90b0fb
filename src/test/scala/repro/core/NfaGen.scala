package repro.core

import org.scalacheck.Gen

import scala.collection.mutable

/** Test builders, ScalaCheck generators and a language reader for NFAs and
  * runs.
  */
object NfaGen {

  /** The NFA with per-state `(label set, target)` edges; labels are interned
    * by content.
    */
  def nfa(isFinal: Array[Boolean], edges: Array[Array[(Array[Int], Int)]]): Nfa = {
    val labels = new SliceInterner
    new Nfa(isFinal, edges.map(_.flatMap { case (l, t) => Array(labels.intern(l, 0, l.length), t) }), labels.table)
  }

  /** State `q`'s edges as `(label set, target)`, in order. */
  def edgesOf(nfa: Nfa, q: Int): Seq[(Seq[Int], Int)] =
    nfa.edges(q).grouped(2).map(e => (nfa.labels(e(0)).toSeq, e(1))).toSeq

  /** The language `nfa` accepts (distinct candidate sequences), enumerated;
    * only for small NFAs.
    */
  def language(nfa: Nfa, cap: Int = 1 << 20): Set[List[Int]] = {
    val out = mutable.Set.empty[List[Int]]
    def rec(q: Int, acc: List[Int]): Unit = {
      if (out.size > cap) throw new IllegalStateException("language too large")
      if (nfa.isFinal(q)) out += acc.reverse
      for ((label, t) <- edgesOf(nfa, q); w <- label) rec(t, w :: acc)
    }
    rec(0, Nil)
    out.toSet
  }

  /** The trie of `runs` (sequences of output sets), built like
    * [[NfaReference.buildForSequence]] builds one pivot's trie.
    */
  def trieOf(runs: Seq[Seq[Array[Int]]]): Nfa = {
    val forest = new TrieForest(new SliceInterner)
    val root = forest.newRoot()
    for (run <- runs) {
      var node = root
      for (set <- run) node = forest.child(node, forest.labels.intern(set, 0, set.length))
      forest.setFinal(node)
    }
    forest.toNfa(root)
  }

  /** A sorted, distinct, non-empty set of items from `1..maxItem`. */
  def itemSet(maxItem: Int, maxSize: Int = 3): Gen[Array[Int]] =
    Gen.choose(1, maxSize).flatMap(n => Gen.listOfN(n, Gen.choose(1, maxItem)))
      .map(_.distinct.sorted.toArray)

  /** An FST run's output sets: ε-only (`{0}`) or item sets. */
  val run: Gen[IndexedSeq[Array[Int]]] =
    Gen.choose(0, 8).flatMap(n =>
      Gen.listOfN(n, Gen.frequency(1 -> Gen.const(Array(0)), 3 -> itemSet(12, 4))))
      .map(_.toIndexedSeq)

  /** Runs without ε sets, as inserted into a pivot's trie. */
  val trieRuns: Gen[Seq[Seq[Array[Int]]]] =
    Gen.choose(1, 8).flatMap(n =>
      Gen.listOfN(n, Gen.choose(1, 5).flatMap(len => Gen.listOfN(len, itemSet(6)))))

  /** An acyclic NFA (edges only to higher states) whose edges may share items,
    * so one word can have several paths.
    */
  val acyclicNfa: Gen[Nfa] = for {
    n <- Gen.choose(1, 6)
    finals <- Gen.listOfN(n, Gen.oneOf(true, false))
    edges <- Gen.sequence[List[Array[(Array[Int], Int)]], Array[(Array[Int], Int)]]((0 until n).map { q =>
      if (q == n - 1) Gen.const(Array.empty[(Array[Int], Int)])
      else Gen.choose(0, 3).flatMap(d =>
        Gen.listOfN(d, Gen.zip(itemSet(5), Gen.choose(q + 1, n - 1))).map(_.toArray))
    })
  } yield nfa(finals.toArray, edges.toArray)
}
