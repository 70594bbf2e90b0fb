package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is one call into a layer: its name, start and end (`System.nanoTime`)
  * and the span that was open when it started. Spans are kept in growable
  * primitive arrays so that recording one costs two clock reads and a few
  * stores; they are written out only by [[write]], at the end of the run.
  */
final class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var nameOf = new Array[Int](1024)
  private var parentOf = new Array[Int](1024)
  private var startOf = new Array[Long](1024)
  private var endOf = new Array[Long](1024)
  private var n = 0
  private var open = -1

  def size: Int = n

  /** Record `body` as one span named `name`, a child of the open span. */
  def span[A](name: String)(body: => A): A = {
    if (n == nameOf.length) grow()
    val id = n
    n += 1
    nameOf(id) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    parentOf(id) = open
    open = id
    startOf(id) = System.nanoTime()
    try body
    finally {
      endOf(id) = System.nanoTime()
      open = parentOf(id)
    }
  }

  private def grow(): Unit = {
    val m = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, m)
    parentOf = java.util.Arrays.copyOf(parentOf, m)
    startOf = java.util.Arrays.copyOf(startOf, m)
    endOf = java.util.Arrays.copyOf(endOf, m)
  }

  private def duration(id: Int): Long = endOf(id) - startOf(id)

  /** Per span name: number of spans, total time and self time in seconds.
    * Self time is a span's duration minus the time its child spans cover;
    * children of one span never overlap, since they run on its thread.
    */
  def summary: Map[String, (Int, Double, Double)] = {
    val childTime = new Array[Long](n)
    for (id <- 0 until n if parentOf(id) >= 0) childTime(parentOf(id)) += duration(id)
    (0 until n).groupBy(id => names(nameOf(id))).map { case (name, ids) =>
      name -> (ids.length,
        ids.iterator.map(duration).sum / 1e9,
        ids.iterator.map(id => duration(id) - childTime(id)).sum / 1e9)
    }
  }

  /** Longest single span named `name`, in seconds. */
  def longest(name: String): Double = {
    val k = nameIds.getOrElse(name, -1)
    (0 until n).iterator.filter(nameOf(_) == k).map(duration).maxOption.getOrElse(0L) / 1e9
  }

  /** Write every span as a tab-separated line: id, parent, name, start ns,
    * end ns (start and end relative to the first span).
    */
  def write(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(file))
    try {
      out.println("id\tparent\tname\tstart_ns\tend_ns")
      val t0 = if (n == 0) 0L else startOf(0)
      for (id <- 0 until n)
        out.println(s"$id\t${parentOf(id)}\t${names(nameOf(id))}\t${startOf(id) - t0}\t${endOf(id) - t0}")
    } finally out.close()
  }
}

object Tracer {

  /** Seconds that recording one span adds, measured on empty spans in a
    * scratch tracer after a warm-up; spans × this is the tracing overhead.
    */
  def costPerSpanS(): Double = {
    val reps = 200000
    def once(): Double = {
      val t = new Tracer
      val t0 = System.nanoTime()
      var i = 0
      while (i < reps) { t.span("calibrate")(()); i += 1 }
      (System.nanoTime() - t0).toDouble / reps / 1e9
    }
    once()
    Stats.median(Seq.fill(5)(once()))
  }
}
