"""Law server: the authoritative, self-regulating home of published laws.

The server is an L-agent like any other. Over ordinary governed
messages it answers law-text and law-path queries, so an agent can fetch
any law it meets, and accepts maintenance messages (publishing new
deltas). Whether a given sender may query or publish at all is decided
by the law the server itself runs under, not by this code.
"""

from __future__ import annotations

from typing import Optional

from .actors import BaseActor
from .core import FdsError, Term
from .hierarchy import Framework, FrameworkError
from .lawlang import parse_law


class LawServer(BaseActor):
    """Governed query and maintenance front-end over a framework, an actor
    like any other: adoption binds it to its pool and names it."""

    def __init__(self, framework: Framework):
        super().__init__()
        self.framework = framework

    def _text_reply(self, h: str) -> Term:
        try:
            return Term("lawText", (h, self.framework.get_text(h)))
        except FrameworkError as exc:
            return Term("lawError", (h, str(exc)))

    def _path_reply(self, h: str) -> Term:
        try:
            path = self.framework.resolve_path(h)
        except FrameworkError as exc:
            return Term("lawError", (h, str(exc)))
        return Term("lawPath", (h, Term("path", tuple(path.hashes))))

    def on_deliver(self, sender: str, payload: Term):
        reply = self.handle(payload)
        if reply is not None:
            self.pool.send(self.name, sender, reply)

    def handle(self, payload: Term) -> Optional[Term]:
        f = payload.functor
        if f == "lawTextRequest":
            return self._text_reply(_string_arg(payload, 0))
        if f == "lawPathRequest":
            return self._path_reply(_string_arg(payload, 0))
        if f == "publishDelta":
            superior = _string_arg(payload, 0)
            text = _string_arg(payload, 1)
            try:
                doc = parse_law(text)
                h = self.framework.publish_delta(superior, doc)
                return Term("published", (h,))
            except FdsError as exc:
                return Term("publishError", (str(exc),))
        if f == "publishRoot":
            try:
                doc = parse_law(_string_arg(payload, 0))
                h = self.framework.publish_root(doc)
                return Term("published", (h,))
            except FdsError as exc:
                return Term("publishError", (str(exc),))
        return None


def _string_arg(t: Term, i: int) -> str:
    if i >= len(t.args) or not isinstance(t.args[i], str):
        raise FdsError("malformed law-server request: %s" % t.canonical())
    return t.args[i]
