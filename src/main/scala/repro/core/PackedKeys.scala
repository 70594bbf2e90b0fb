package repro.core

/** Interns int slices (NFA edge labels) by content. Ids are dense, from 0, in
  * first-seen order; `table(id)` is the one stored copy of the label.
  */
private[core] final class LabelInterner {
  private var labels = new Array[Array[Int]](16)
  private var hashes = new Array[Int](16)
  private var n = 0
  private var slots = Array.fill(32)(-1) // label ids, open addressing by hash

  /** The labels by id, as an [[Nfa]]'s label table; entries past the last id are null. */
  def table: Array[Array[Int]] = labels

  /** Id of the label `a(from until until)`. */
  def intern(a: Array[Int], from: Int, until: Int): Int = {
    var h = 1
    var i = from
    while (i < until) { h = 31 * h + a(i); i += 1 }
    h ^= h >>> 16
    var mask = slots.length - 1
    var s = h & mask
    while (slots(s) >= 0) {
      val id = slots(s)
      if (hashes(id) == h && java.util.Arrays.equals(labels(id), 0, labels(id).length, a, from, until))
        return id
      s = (s + 1) & mask
    }
    if (n == labels.length) {
      labels = java.util.Arrays.copyOf(labels, 2 * n)
      hashes = java.util.Arrays.copyOf(hashes, 2 * n)
    }
    labels(n) = java.util.Arrays.copyOfRange(a, from, until)
    hashes(n) = h
    slots(s) = n
    n += 1
    if (2 * n > slots.length) {
      slots = Array.fill(2 * slots.length)(-1)
      mask = slots.length - 1
      var id = 0
      while (id < n) {
        var t = hashes(id) & mask
        while (slots(t) >= 0) t = (t + 1) & mask
        slots(t) = id
        id += 1
      }
    }
    n - 1
  }
}

/** Revuz classing (Revuz, TCS 1992) of an acyclic automaton's states,
  * children first, emitting the automaton of the classes.
  *
  * A state's signature is its finality plus the sorted, distinct keys
  * `labelId << 32 | class` of its edges. Two states are equivalent iff their
  * signatures over already classified children are equal, so signatures are
  * hash-consed into dense class ids, from 0, in first-seen order. Without
  * `merge`, every state is its own class. In the emitted NFA, class `c` is
  * state `c + 1` and the last class, the root's, is state 0; a class keeps the
  * edge order of its first state, with repeats dropped.
  */
private[core] final class RevuzClasses(merge: Boolean) {
  private var sig = new Array[Long](16) // the signature being classed
  private var keys = new Array[Long](64) // the signatures of all classes, kept only with `merge`
  private var used = 0
  private var start = new Array[Int](17) // class c's keys: keys(start(c) until start(c + 1))
  private var finals = new Array[Boolean](16)
  private var edges = new Array[Array[Int]](16)
  private var hashes = new Array[Int](16)
  private var slotOf = new Array[Int](16) // class -> its slot, so clearing is O(classes)
  private var n = 0
  private var slots = Array.fill(32)(-1) // class ids, open addressing by hash

  /** The class of a state with finality `isFinal` whose edges are the
    * `labelId, childClass` pairs `pairs(from until from + 2 * degree)`.
    */
  def classOf(isFinal: Boolean, pairs: Array[Int], from: Int, degree: Int): Int = {
    var len = degree
    var h = 0
    var s = 0
    if (merge) {
      if (degree > sig.length) sig = new Array[Long](2 * degree)
      var j = 0
      while (j < degree) { sig(j) = pairs(from + 2 * j).toLong << 32 | pairs(from + 2 * j + 1); j += 1 }
      java.util.Arrays.sort(sig, 0, degree)
      len = 0
      j = 0
      while (j < degree) { if (len == 0 || sig(j) != sig(len - 1)) { sig(len) = sig(j); len += 1 }; j += 1 }
      h = if (isFinal) 1 else 0
      j = 0
      while (j < len) {
        val m = sig(j) * 0x9E3779B97F4A7C15L
        h = 31 * h + (m ^ (m >>> 32)).toInt
        j += 1
      }
      h ^= h >>> 16
      s = h & (slots.length - 1)
      while (slots(s) >= 0) {
        val c = slots(s)
        if (hashes(c) == h && finals(c) == isFinal &&
            java.util.Arrays.equals(keys, start(c), start(c + 1), sig, 0, len))
          return c
        s = (s + 1) & (slots.length - 1)
      }
    }

    if (n == finals.length) {
      finals = java.util.Arrays.copyOf(finals, 2 * n)
      edges = java.util.Arrays.copyOf(edges, 2 * n)
      hashes = java.util.Arrays.copyOf(hashes, 2 * n)
      slotOf = java.util.Arrays.copyOf(slotOf, 2 * n)
      start = java.util.Arrays.copyOf(start, 2 * n + 1)
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
    if (merge) {
      if (used + len > keys.length)
        keys = java.util.Arrays.copyOf(keys, math.max(2 * keys.length, used + len))
      System.arraycopy(sig, 0, keys, used, len)
      start(n) = used
      used += len
      start(n + 1) = used
      hashes(n) = h
      slots(s) = n
      slotOf(n) = s
      if (2 * (n + 1) > slots.length) {
        slots = Array.fill(2 * slots.length)(-1)
        var c = 0
        while (c <= n) {
          var t = hashes(c) & (slots.length - 1)
          while (slots(t) >= 0) t = (t + 1) & (slots.length - 1)
          slots(t) = c
          slotOf(c) = t
          c += 1
        }
      }
    }
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
    if (merge) { var c = 0; while (c < n) { slots(slotOf(c)) = -1; c += 1 } }
    n = 0
    used = 0
    new Nfa(isFinal, es, labels)
  }
}
