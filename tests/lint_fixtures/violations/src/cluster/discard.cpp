// Fixture: every shape of a dropped comm Status.
namespace zh {
void fixture_discard(Communicator& comm, Deadline d) {
  comm.recv_bytes(0, 1, d, buf);
  (void)comm.recv_any(tags, d, msg);
  comm.recv<int>(0, 1, d, out);
}
}  // namespace zh
