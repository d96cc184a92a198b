package hdbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** Spans of the traced run, kept in memory and written out as JSON lines
  * when the run ends. Every span has a name, start and end (nanoTime), the
  * index of its parent span (-1 for a root) and the id of the operation it
  * belongs to.
  *
  * The spans are recorded around calls into the public functions of the
  * `repro.core` modules, not inside them. Stages that `HdQuery.searchLocal`
  * runs internally (key encodes, window selection, query–reference
  * distances) are observed by replaying the same public calls right after
  * the query; those spans carry `"replay": true`, and the filter's self time
  * is the pre-fetch interval of `searchLocal` minus the replayed stages.
  */
final class Tracer {
  private val names   = ArrayBuffer.empty[String]
  private val ops     = ArrayBuffer.empty[Long]
  private val parents = ArrayBuffer.empty[Int]
  private val starts  = ArrayBuffer.empty[Long]
  private val ends    = ArrayBuffer.empty[Long]
  private val replays = ArrayBuffer.empty[Boolean]

  /** Records a span and returns its index. */
  def span(name: String, op: Long, parent: Int, start: Long, end: Long,
           replay: Boolean = false): Int = {
    names += name; ops += op; parents += parent; starts += start; ends += end; replays += replay
    names.length - 1
  }

  /** Durations in nanoseconds of every span with this name. */
  def durations(name: String): Array[Long] =
    names.indices.iterator.filter(names(_) == name).map(i => ends(i) - starts(i)).toArray

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try names.indices.foreach { i =>
      w.println(s"""{"span":$i,"name":"${names(i)}","op":${ops(i)},"parent":${parents(i)},""" +
                s""""start_ns":${starts(i)},"end_ns":${ends(i)},"replay":${replays(i)}}""")
    } finally w.close()
  }
}

/** `getVec` wrapper for a traced query: records the time of the first fetch
  * (the boundary between filtering and re-ranking) and every fetched id.
  */
final class FetchRecorder(vec: Long => Array[Float]) extends (Long => Array[Float]) {
  var firstFetch = -1L
  val ids = ArrayBuffer.empty[Long]
  override def apply(id: Long): Array[Float] = {
    if (firstFetch < 0) firstFetch = System.nanoTime()
    ids += id
    vec(id)
  }
}
