import pytest

from fds.actors import SinkActor
from fds.controller import ControllerPool, issue_certificate
from fds.core import Term, hash_law, parse_term
from fds.lawserver import LawServer
from fds.library import build_acme_hierarchy, make_division_law
from fds.transport import Scheduler, SimNet, SimNetConfig


@pytest.fixture()
def acme():
    return build_acme_hierarchy()


@pytest.fixture()
def server(acme):
    return LawServer(acme.framework)


class TestQueryProtocol:
    def test_law_text_request_round_trips(self, acme, server):
        body = server.handle(Term("lawTextRequest", (acme.d1,)))
        assert body.functor == "lawText" and body.args[0] == acme.d1
        assert hash_law(body.args[1]) == acme.d1

    def test_law_path_request_returns_root_to_leaf(self, acme, server):
        body = server.handle(Term("lawPathRequest", (acme.travel,)))
        assert body.functor == "lawPath" and body.args[0] == acme.travel
        assert body.args[1].args == (acme.root, acme.d1, acme.travel)

    def test_unknown_hash_yields_law_error(self, acme, server):
        body = server.handle(Term("lawTextRequest", ("nope",)))
        assert body.functor == "lawError"


class TestGovernedMaintenance:
    def _pool(self, acme):
        sched = Scheduler()
        pool = ControllerPool(acme.framework, SimNet(sched, SimNetConfig(seed=0, latency=(1, 1))))
        server = LawServer(acme.framework)
        pool.adopt(server, issue_certificate("law-server", ""), acme.root)
        return pool, sched, server

    def test_law_admin_can_publish_delta(self, acme):
        pool, sched, _ = self._pool(acme)
        admin = SinkActor()
        pool.adopt(admin, issue_certificate("law-admin", ""), acme.root)
        text = make_division_law("D3")
        assert pool.send("law-admin", "law-server",
                         Term("publishDelta", (acme.root, text)))
        sched.run()
        published = [p for _, _, p in admin.deliveries if p.functor == "published"]
        assert len(published) == 1
        assert acme.framework.docs[published[0].args[0]].name == "acme-d3"

    def test_others_cannot_publish(self, acme):
        pool, sched, _ = self._pool(acme)
        mallory = SinkActor()
        pool.adopt(mallory, issue_certificate("mallory", ""), acme.root)
        assert not pool.send("mallory", "law-server",
                             Term("publishDelta", (acme.root, "law x\n")))
        assert mallory.blocked[-1][2] == "law-maintenance-restricted"

    def test_sealed_violation_reported_as_publish_error(self, acme):
        pool, sched, _ = self._pool(acme)
        admin = SinkActor()
        pool.adopt(admin, issue_certificate("law-admin", ""), acme.root)
        forged = ("law forged\nextends acme-root\n"
                  "rule q aspect law-query on sent(_, lawTextRequest(_), _)"
                  " do { block }\n")
        pool.send("law-admin", "law-server",
                  Term("publishDelta", (acme.root, forged)))
        sched.run()
        replies = [p for _, _, p in admin.deliveries]
        assert replies and replies[-1].functor == "publishError"

    def test_query_over_governed_channel(self, acme):
        pool, sched, _ = self._pool(acme)
        probe = SinkActor()
        pool.adopt(probe, issue_certificate("probe", "D1"), acme.d1)
        assert pool.send("probe", "law-server",
                         parse_term('lawTextRequest("%s")' % acme.d2))
        sched.run()
        got = [p for _, _, p in probe.deliveries if p.functor == "lawText"]
        assert len(got) == 1 and hash_law(got[0].args[1]) == acme.d2
