package repro.core

/** Interns int slices by content: NFA edge labels, and the signatures of
  * [[RevuzClasses]]. Ids are dense, from 0, in first-seen order; `table(id)`
  * is the one stored copy of the slice.
  */
private[core] final class SliceInterner {
  private var slices = new Array[Array[Int]](16)
  private var hashes = new Array[Int](16)
  private var n = 0
  private var slots = new Array[Int](32) // slice id + 1, or 0 if free; open addressing by hash

  /** The slices by id, as an [[Nfa]]'s label table; entries past the last id are null. */
  def table: Array[Array[Int]] = slices

  /** Id of the slice `a(from until until)`. */
  def intern(a: Array[Int], from: Int, until: Int): Int = {
    var h = 1
    var i = from
    while (i < until) { h = 31 * h + a(i); i += 1 }
    h ^= h >>> 16
    var mask = slots.length - 1
    var s = h & mask
    while (slots(s) != 0) {
      val id = slots(s) - 1
      if (hashes(id) == h && java.util.Arrays.equals(slices(id), 0, slices(id).length, a, from, until))
        return id
      s = (s + 1) & mask
    }
    if (n == slices.length) {
      slices = java.util.Arrays.copyOf(slices, 2 * n)
      hashes = java.util.Arrays.copyOf(hashes, 2 * n)
    }
    slices(n) = java.util.Arrays.copyOfRange(a, from, until)
    hashes(n) = h
    slots(s) = n + 1
    n += 1
    if (2 * n > slots.length) {
      slots = new Array[Int](2 * slots.length)
      mask = slots.length - 1
      var id = 0
      while (id < n) {
        var t = hashes(id) & mask
        while (slots(t) != 0) t = (t + 1) & mask
        slots(t) = id + 1
        id += 1
      }
    }
    n - 1
  }
}

/** Revuz classing (Revuz, TCS 1992) of an acyclic automaton's states,
  * children first, emitting the automaton of the classes.
  *
  * A state's signature is the int slice `[finality (0/1), l0, c0, l1, c1, ...]`
  * of its edges' distinct `(labelId, class)` pairs, sorted by `labelId << 32 | class`.
  * Two states are equivalent iff their signatures over already classified
  * children are equal, so signatures are interned in a [[SliceInterner]], whose
  * ids are the dense class ids, from 0, in first-seen order. Without `merge`,
  * every state is its own class. In the emitted NFA, class `c` is state `c + 1`
  * and the last class, the root's, is state 0; a class keeps the edge order of
  * its first state, with repeats dropped.
  */
private[core] final class RevuzClasses(merge: Boolean) {
  private var keys = new Array[Long](16) // the packed edge keys of the state being classed
  private var sig = new Array[Int](33) // its signature
  private var sigs = new SliceInterner // the signatures of all classes, used only with `merge`
  private var finals = new Array[Boolean](16)
  private var edges = new Array[Array[Int]](16)
  private var n = 0

  /** The class of a state with finality `isFinal` whose edges are the
    * `labelId, childClass` pairs `pairs(from until from + 2 * degree)`.
    */
  def classOf(isFinal: Boolean, pairs: Array[Int], from: Int, degree: Int): Int = {
    var len = degree
    if (merge) {
      if (degree > keys.length) { keys = new Array[Long](2 * degree); sig = new Array[Int](4 * degree + 1) }
      var j = 0
      while (j < degree) { keys(j) = pairs(from + 2 * j).toLong << 32 | pairs(from + 2 * j + 1); j += 1 }
      java.util.Arrays.sort(keys, 0, degree)
      sig(0) = if (isFinal) 1 else 0
      len = 0
      j = 0
      while (j < degree) {
        if (j == 0 || keys(j) != keys(j - 1)) {
          sig(2 * len + 1) = (keys(j) >>> 32).toInt; sig(2 * len + 2) = keys(j).toInt; len += 1
        }
        j += 1
      }
      val c = sigs.intern(sig, 0, 2 * len + 1)
      if (c < n) return c
    }

    if (n == finals.length) {
      finals = java.util.Arrays.copyOf(finals, 2 * n)
      edges = java.util.Arrays.copyOf(edges, 2 * n)
    }
    val out = new Array[Int](2 * len)
    var o = 0
    var j = from
    while (j < from + 2 * degree) {
      val t = pairs(j + 1) + 1
      var x = if (len < degree) 0 else o // look for a repeat only if there is one
      while (x < o && (out(x) != pairs(j) || out(x + 1) != t)) x += 2
      if (x == o) { out(o) = pairs(j); out(o + 1) = t; o += 2 }
      j += 2
    }
    finals(n) = isFinal
    edges(n) = out
    n += 1
    n - 1
  }

  /** The NFA of the classes so far over the label table `labels`; forgets
    * every class.
    */
  def result(labels: Array[Array[Int]]): Nfa = {
    val isFinal = new Array[Boolean](n)
    val es = new Array[Array[Int]](n)
    System.arraycopy(finals, 0, isFinal, 1, n - 1)
    System.arraycopy(edges, 0, es, 1, n - 1)
    isFinal(0) = finals(n - 1)
    es(0) = edges(n - 1)
    if (merge) sigs = new SliceInterner
    n = 0
    new Nfa(isFinal, es, labels)
  }
}
