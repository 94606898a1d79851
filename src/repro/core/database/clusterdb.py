"""The cluster configuration database (§6.4).

"Rocks clusters use a MySQL database for site configuration...  From
these tables we generate the /etc/hosts, /etc/dhcpd.conf, and PBS
configuration files."  This class wraps an SQLite database behind the
same schema and exposes both a typed API (used by insert-ethers and the
kickstart CGI) and raw SQL (``query()``), because arbitrary
``--query="select ..."`` strings are a headline feature of the Rocks
cluster tools.
"""

from __future__ import annotations

import ipaddress
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .schema import DEFAULT_APPLIANCES, DEFAULT_MEMBERSHIPS, SCHEMA

__all__ = ["ClusterDatabase", "NodeRow", "DatabaseError"]


class DatabaseError(Exception):
    """Constraint violations and bad lookups."""


@dataclass(frozen=True)
class NodeRow:
    """One row of the nodes table (Table II)."""

    id: int
    mac: Optional[str]
    name: str
    membership: int
    cpus: int
    rack: int
    rank: int
    ip: Optional[str]
    arch: str
    os_dist: str
    comment: str


class ClusterDatabase:
    """Typed facade + raw SQL over the Rocks site database."""

    #: Rocks hands addresses out of 10.0.0.0/8, descending from the top
    #: (Table II: compute-0-0 gets 10.255.255.254 side of the space).
    NETWORK = ipaddress.ip_network("10.0.0.0/8")

    def __init__(self, path: str = ":memory:"):
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(SCHEMA)
        self._seed_catalogs()
        #: Optional write-ahead journal; every mutator logs through it.
        self.journal = None

    def attach_journal(self, journal, checkpoint: bool = True) -> None:
        """Route every subsequent mutation through ``journal``.

        ``checkpoint`` (the default) first snapshots the current state
        into the journal, so rows that predate journaling — the frontend's
        own node row, seeded catalogs — survive a replay too.
        """
        if checkpoint:
            journal.checkpoint(self)
        self.journal = journal

    def _journal(self, op: str, **args: Any) -> None:
        if self.journal is not None:
            self.journal.append(op, **args)

    def _seed_catalogs(self) -> None:
        cur = self._conn.execute("SELECT COUNT(*) FROM appliances")
        if cur.fetchone()[0] == 0:
            self._conn.executemany(
                "INSERT INTO appliances (id, name, node) VALUES (?, ?, ?)",
                DEFAULT_APPLIANCES,
            )
            self._conn.executemany(
                "INSERT INTO memberships (id, name, appliance, compute) "
                "VALUES (?, ?, ?, ?)",
                DEFAULT_MEMBERSHIPS,
            )
            self._conn.commit()

    # -- raw SQL (the cluster-kill --query path) ---------------------------------
    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Run any SELECT (joins welcome); returns rows as tuples."""
        cur = self._conn.execute(sql, params)
        return [tuple(r) for r in cur.fetchall()]

    def execute(self, sql: str, params: Sequence[Any] = ()) -> None:
        self._journal("sql", sql=sql, params=list(params))
        self._conn.execute(sql, params)
        self._conn.commit()

    # -- app_globals ----------------------------------------------------------------
    def set_global(self, service: str, component: str, value: str) -> None:
        self._journal(
            "set-global", service=service, component=component, value=value
        )
        self._conn.execute(
            "INSERT INTO app_globals (service, component, value) VALUES (?,?,?) "
            "ON CONFLICT (service, component) DO UPDATE SET value = excluded.value",
            (service, component, value),
        )
        self._conn.commit()

    def get_global(self, service: str, component: str, default: str = "") -> str:
        cur = self._conn.execute(
            "SELECT value FROM app_globals WHERE service=? AND component=?",
            (service, component),
        )
        row = cur.fetchone()
        return row[0] if row else default

    # -- memberships / appliances ------------------------------------------------------
    def membership_id(self, name: str) -> int:
        cur = self._conn.execute("SELECT id FROM memberships WHERE name=?", (name,))
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"no membership named {name!r}")
        return row[0]

    def memberships(self) -> list[tuple[int, str, int, str]]:
        return self.query(
            "SELECT id, name, appliance, compute FROM memberships ORDER BY id"
        )

    def appliance_for_membership(self, membership_id: int) -> tuple[str, str]:
        """(appliance name, graph root node file) for a membership."""
        cur = self._conn.execute(
            "SELECT a.name, a.node FROM appliances a, memberships m "
            "WHERE m.id=? AND m.appliance = a.id",
            (membership_id,),
        )
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"membership {membership_id} has no appliance")
        return (row[0], row[1])

    # -- nodes ---------------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        membership: str = "Compute",
        mac: Optional[str] = None,
        ip: Optional[str] = None,
        rack: int = 0,
        rank: int = 0,
        cpus: int = 1,
        arch: str = "i386",
        os_dist: str = "rocks-dist",
        comment: str = "",
    ) -> NodeRow:
        """Insert a node (what insert-ethers does per new MAC)."""
        mid = self.membership_id(membership)
        if ip is None:
            ip = self.next_free_ip()
        # Journal with the *resolved* IP: replay must not re-run the
        # allocator against whatever state it happens to see.
        self._journal(
            "add-node",
            name=name,
            membership=membership,
            mac=mac,
            ip=ip,
            rack=rack,
            rank=rank,
            cpus=cpus,
            arch=arch,
            os_dist=os_dist,
            comment=comment,
        )
        try:
            self._conn.execute(
                "INSERT INTO nodes (mac, name, membership, cpus, rack, rank, "
                "ip, arch, os_dist, comment) VALUES (?,?,?,?,?,?,?,?,?,?)",
                (mac, name, mid, cpus, rack, rank, ip, arch, os_dist, comment),
            )
        except sqlite3.IntegrityError as err:
            raise DatabaseError(f"cannot add node {name!r}: {err}") from err
        self._conn.commit()
        return self.node_by_name(name)

    def remove_node(self, name: str) -> None:
        self._journal("remove-node", name=name)
        self._conn.execute("DELETE FROM nodes WHERE name=?", (name,))
        self._conn.commit()

    def nodes(self, membership: Optional[str] = None) -> list[NodeRow]:
        if membership is None:
            cur = self._conn.execute("SELECT * FROM nodes ORDER BY id")
        else:
            cur = self._conn.execute(
                "SELECT n.* FROM nodes n, memberships m "
                "WHERE n.membership = m.id AND m.name=? ORDER BY n.id",
                (membership,),
            )
        return [self._row(r) for r in cur.fetchall()]

    def compute_nodes(self) -> list[NodeRow]:
        """The Table III join: nodes whose membership is marked compute."""
        cur = self._conn.execute(
            "SELECT n.* FROM nodes n, memberships m "
            "WHERE n.membership = m.id AND m.compute = 'yes' ORDER BY n.id"
        )
        return [self._row(r) for r in cur.fetchall()]

    def node_by_name(self, name: str) -> NodeRow:
        cur = self._conn.execute("SELECT * FROM nodes WHERE name=?", (name,))
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"no node named {name!r}")
        return self._row(row)

    def node_by_mac(self, mac: str) -> Optional[NodeRow]:
        cur = self._conn.execute("SELECT * FROM nodes WHERE mac=?", (mac,))
        row = cur.fetchone()
        return self._row(row) if row else None

    def node_by_ip(self, ip: str) -> Optional[NodeRow]:
        cur = self._conn.execute("SELECT * FROM nodes WHERE ip=?", (ip,))
        row = cur.fetchone()
        return self._row(row) if row else None

    def has_mac(self, mac: str) -> bool:
        return self.node_by_mac(mac) is not None

    @property
    def total_changes(self) -> int:
        """Rows inserted, updated or deleted since the database opened.

        sqlite's own count, so it covers every writer, raw SQL and
        restored dumps included: while it stands still, no query answer
        can have changed.
        """
        return self._conn.total_changes

    def next_rank(self, rack: int, membership: str = "Compute") -> int:
        mid = self.membership_id(membership)
        cur = self._conn.execute(
            "SELECT MAX(rank) FROM nodes WHERE rack=? AND membership=?",
            (rack, mid),
        )
        row = cur.fetchone()
        return 0 if row[0] is None else row[0] + 1

    def set_os_dist(self, name: str, os_dist: str) -> None:
        """Point a node at a different distribution (§6.2.3 heterogeneity)."""
        self.node_by_name(name)  # raises on unknown
        self._journal("set-os-dist", name=name, os_dist=os_dist)
        self._conn.execute(
            "UPDATE nodes SET os_dist=? WHERE name=?", (os_dist, name)
        )
        self._conn.commit()

    def next_free_ip(self) -> str:
        """Highest unassigned address, descending — Table II's pattern.

        10.255.255.254 goes to the first inserted non-frontend node, then
        .253, and so on; the frontend conventionally holds 10.1.1.1.
        """
        taken = {
            row[0]
            for row in self.query("SELECT ip FROM nodes WHERE ip IS NOT NULL")
        }
        candidate = int(self.NETWORK.broadcast_address) - 1
        floor = int(self.NETWORK.network_address)
        while candidate > floor:
            ip = str(ipaddress.ip_address(candidate))
            if ip not in taken:
                return ip
            candidate -= 1
        raise DatabaseError("address space exhausted")

    # -- crash / recovery --------------------------------------------------
    def snapshot(self) -> str:
        """Canonical SQL dump of the full database state.

        ``iterdump`` emits schema plus rows in a stable order, so two
        databases holding identical state produce identical text — the
        byte-identity check the crash-recovery test relies on.
        """
        return "\n".join(self._conn.iterdump())

    def lose_state(self) -> None:
        """Simulate a crash that destroys the database contents.

        The connection object survives (other components hold references
        to this ``ClusterDatabase``), but every row is gone; only the
        seeded appliance/membership catalogs of a fresh install remain.
        """
        for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall():
            self._conn.execute(f'DELETE FROM "{name}"')
        self._conn.commit()
        self._seed_catalogs()

    def restore_from_dump(self, dump: str) -> None:
        """Replace the entire database with a prior :meth:`snapshot`."""
        for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall():
            self._conn.execute(f'DROP TABLE IF EXISTS "{name}"')
        self._conn.commit()
        self._conn.executescript(dump)
        self._conn.commit()

    @staticmethod
    def _row(r: sqlite3.Row) -> NodeRow:
        return NodeRow(
            id=r["id"],
            mac=r["mac"],
            name=r["name"],
            membership=r["membership"],
            cpus=r["cpus"],
            rack=r["rack"],
            rank=r["rank"],
            ip=r["ip"],
            arch=r["arch"],
            os_dist=r["os_dist"],
            comment=r["comment"],
        )
