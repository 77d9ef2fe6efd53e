/* A minimal WearC app for the command-line tools:
 *
 *   dune exec bin/amulet.exe -- cc --mode mpu examples/wearc/blink_counter.c
 *   dune exec bin/amulet.exe -- sim -m mpu -t 10 examples/wearc/blink_counter.c
 *   dune exec bin/amulet.exe -- objdump examples/wearc/blink_counter.c
 */

int blinks = 0;

void handle_init(int arg) {
  api_set_timer(500);
  api_display_write("blink", 0);
}

void handle_timer(int arg) {
  blinks += 1;
  api_led(blinks & 1);
}
