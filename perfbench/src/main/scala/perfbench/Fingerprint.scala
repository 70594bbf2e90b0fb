package perfbench

import org.apache.spark.rdd.RDD
import repro.core.Pattern

/** Order-independent fingerprint of a mining result `pattern -> support`.
  *
  * Each pair is hashed to 64 bits; the fingerprint keeps the number of pairs
  * and the sum and xor of those hashes, so it can be computed on the
  * executors with `aggregate` and compared with the sequential miner's result
  * without collecting the patterns.
  */
final case class Fingerprint(count: Long, sum: Long, xor: Long) {
  def add(items: Array[Int], support: Long): Fingerprint = {
    val h = Fingerprint.hash(items, support)
    Fingerprint(count + 1, sum + h, xor ^ h)
  }
  def merge(o: Fingerprint): Fingerprint = Fingerprint(count + o.count, sum + o.sum, xor ^ o.xor)
  override def toString: String = f"$count%d patterns, sum=$sum%016x xor=$xor%016x"
}

object Fingerprint {
  val empty: Fingerprint = Fingerprint(0, 0, 0)

  /** splitmix64 finalizer. */
  def mix64(x0: Long): Long = {
    var z = x0
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** 64-bit hash of one `(pattern, support)` pair. */
  def hash(items: Array[Int], support: Long): Long = {
    var h = 0x9E3779B97F4A7C15L ^ items.length
    var i = 0
    while (i < items.length) { h = mix64(h + items(i)); i += 1 }
    mix64(h ^ mix64(support))
  }

  def of(result: Iterable[(Pattern, Long)]): Fingerprint =
    result.foldLeft(empty) { case (fp, (p, s)) => fp.add(p.items, s) }

  /** Fingerprint computed on the executors; only the three longs come back. */
  def of(result: RDD[(Pattern, Long)]): Fingerprint =
    result.aggregate(empty)({ case (fp, (p, s)) => fp.add(p.items, s) }, _ merge _)
}
