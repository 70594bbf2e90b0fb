package repro.core

/** Open-addressing map from `Long` keys to non-negative `Int` values, with
  * no boxing. Used for trie children keyed by `node << 32 | labelId`.
  */
private[core] final class LongIntMap {
  private var keys = new Array[Long](16)
  private var vals = Array.fill(16)(-1)
  private var n = 0

  private def slot(k: Long, mask: Int): Int = {
    val h = k * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt & mask
  }

  /** The value of `k`, or -1 if absent. */
  def get(k: Long): Int = {
    val mask = keys.length - 1
    var s = slot(k, mask)
    while (vals(s) >= 0) {
      if (keys(s) == k) return vals(s)
      s = (s + 1) & mask
    }
    -1
  }

  /** The value of `k`; if absent, binds `k` to `v` first and returns `v`. */
  def getOrPut(k: Long, v: Int): Int = {
    require(v >= 0, "LongIntMap values must be non-negative")
    val mask = keys.length - 1
    var s = slot(k, mask)
    while (vals(s) >= 0) {
      if (keys(s) == k) return vals(s)
      s = (s + 1) & mask
    }
    keys(s) = k
    vals(s) = v
    n += 1
    if (2 * n > keys.length) grow()
    v
  }

  private def grow(): Unit = {
    val (oldKeys, oldVals) = (keys, vals)
    keys = new Array[Long](oldKeys.length * 2)
    vals = Array.fill(oldKeys.length * 2)(-1)
    val mask = keys.length - 1
    var i = 0
    while (i < oldKeys.length) {
      if (oldVals(i) >= 0) {
        var s = slot(oldKeys(i), mask)
        while (vals(s) >= 0) s = (s + 1) & mask
        keys(s) = oldKeys(i)
        vals(s) = oldVals(i)
      }
      i += 1
    }
  }
}

/** Interns int slices (NFA edge labels) by content. Ids are dense, from 0, in
  * first-seen order; `apply(id)` returns the one stored copy of the label.
  */
private[core] final class LabelInterner {
  private var labels = new Array[Array[Int]](16)
  private var hashes = new Array[Int](16)
  private var n = 0
  private var slots = Array.fill(32)(-1) // label ids, open addressing by hash

  def size: Int = n
  def apply(id: Int): Array[Int] = labels(id)

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
