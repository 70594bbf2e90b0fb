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

/** Hash-consing of Revuz signatures (Revuz, TCS 1992): a state's finality
  * plus its sorted, distinct edge keys `labelId << 32 | class`. Two states of
  * an acyclic automaton are equivalent iff their signatures over already
  * classified children are equal. Class ids are dense, from 0, in first-seen
  * order; the keys of all classes are kept in one flat array.
  */
private[core] final class SignatureTable {
  private var keys = new Array[Long](64)
  private var used = 0
  private var start = new Array[Int](17) // class c's keys: keys(start(c) until start(c + 1))
  private var finals = new Array[Boolean](16)
  private var hashes = new Array[Int](16)
  private var slotOf = new Array[Int](16) // class -> its slot, so `clear` is O(size)
  private var n = 0
  private var slots = Array.fill(32)(-1) // class ids, open addressing by hash

  def size: Int = n

  /** Forgets every class. */
  def clear(): Unit = {
    var c = 0
    while (c < n) { slots(slotOf(c)) = -1; c += 1 }
    n = 0
    used = 0
  }

  /** The class of the signature `(isFinal, sig(0 until len))`, which must be
    * sorted and distinct; a new class if it is not yet in the table.
    */
  def classOf(isFinal: Boolean, sig: Array[Long], len: Int): Int = {
    var h = if (isFinal) 1 else 0
    var i = 0
    while (i < len) {
      val m = sig(i) * 0x9E3779B97F4A7C15L
      h = 31 * h + (m ^ (m >>> 32)).toInt
      i += 1
    }
    h ^= h >>> 16
    var mask = slots.length - 1
    var s = h & mask
    while (slots(s) >= 0) {
      val c = slots(s)
      if (hashes(c) == h && finals(c) == isFinal &&
          java.util.Arrays.equals(keys, start(c), start(c + 1), sig, 0, len))
        return c
      s = (s + 1) & mask
    }
    if (n == finals.length) {
      finals = java.util.Arrays.copyOf(finals, 2 * n)
      hashes = java.util.Arrays.copyOf(hashes, 2 * n)
      slotOf = java.util.Arrays.copyOf(slotOf, 2 * n)
      start = java.util.Arrays.copyOf(start, 2 * n + 1)
    }
    if (used + len > keys.length) keys = java.util.Arrays.copyOf(keys, math.max(2 * keys.length, used + len))
    System.arraycopy(sig, 0, keys, used, len)
    start(n) = used
    used += len
    start(n + 1) = used
    finals(n) = isFinal
    hashes(n) = h
    slots(s) = n
    slotOf(n) = s
    n += 1
    if (2 * n > slots.length) {
      slots = Array.fill(2 * slots.length)(-1)
      mask = slots.length - 1
      var c = 0
      while (c < n) {
        var t = hashes(c) & mask
        while (slots(t) >= 0) t = (t + 1) & mask
        slots(t) = c
        slotOf(c) = t
        c += 1
      }
    }
    n - 1
  }
}
